(** Fabric topology: how hosts are wired together.

    [Shared_medium] is the paper's single Ethernet — every frame
    serializes on one wire, exactly the pre-fabric model.

    [Switched] is a two-tier switched fabric: hosts attach to edge
    switches by address range ([fan_in] hosts per edge), and every edge
    uplinks to one spine. Each cable is a full-duplex pair of directed
    links carrying traffic independently, so segments transmit
    concurrently.

    This module is pure data and arithmetic — which edge serves a host,
    which nodes a frame visits, which directed links a path crosses.
    Queueing and timing live in {!Ethernet}. *)

type t = Shared_medium | Switched of { fan_in : int }

(** A vertex of the fabric graph. *)
type node = Host of int | Edge of int | Spine

(** [switched ~fan_in] is [Switched { fan_in }]. Raises
    [Invalid_argument] when [fan_in < 1]. *)
val switched : fan_in:int -> t

val equal_node : node -> node -> bool
val node_to_string : node -> string

(** Parse what {!node_to_string} prints ("host3", "edge0", "spine"). *)
val node_of_string : string -> node option

val pp : Format.formatter -> t -> unit

(** The edge switch serving a host address ([addr / fan_in]). Raises
    [Invalid_argument] on a negative address. *)
val edge_of : fan_in:int -> int -> int

(** Nodes a frame visits from [src] to [dst], endpoints included. Same
    edge: host-edge-host; across edges: host-edge-spine-edge-host; on
    the shared medium just [host; host]. *)
val path : t -> src:int -> dst:int -> node list

val links : t -> src:int -> dst:int -> (node * node) list

(** Number of directed links between two hosts (1 on the shared
    wire). *)
val hop_count : t -> src:int -> dst:int -> int

val pp_link : Format.formatter -> node * node -> unit
val link_label : node * node -> string

(** [rollup_scope t label] is the rollup group for a telemetry leaf
    scope named after this topology's nodes or links: "hostN" and any
    link touching edge [e] group under "edge<e>"; the spine, labels
    that are not topology-shaped, and everything on the shared medium
    yield [None] (the leaf still reaches the fleet level). *)
val rollup_scope : t -> string -> string option

(** Is the pair a directed link of this topology's graph? Always
    [false] on the shared medium. *)
val is_link : t -> node * node -> bool
