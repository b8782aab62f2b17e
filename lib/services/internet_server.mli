(** The internet server: a V-kernel IP/TCP gateway (§6) whose TCP
    connections are temporary named objects, listed in a context
    directory next to files and terminals.

    Connections are simulated loopback endpoints: written data is echoed
    back by the "remote" after a WAN round trip — enough to exercise the
    naming and I/O paths. Connection names follow the external
    host:port convention. *)

module Kernel = Vkernel.Kernel

type conn_state = Syn_sent | Established | Closed

val state_to_string : conn_state -> string

type t

val start : Vnaming.Vmsg.t Kernel.host -> t
val pid : t -> Vkernel.Pid.t
val stats : t -> Vnaming.Csnh.server_stats
val connection_state : t -> string -> conn_state option
