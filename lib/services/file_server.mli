(** The V storage server: a CSNH server over the inode filesystem.

    Context identifiers map onto directories, which act as starting
    points for interpreting relative pathnames (§6) — well-known ids
    name the root, the owner's home directory and the standard program
    directory; every other directory has an ordinary context id derived
    from its inode. Cross-server links in directories become request
    forwarding; file access runs over the I/O protocol with optional
    read-ahead. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Service = Vkernel.Service
open Vnaming

type t

(** Boot a storage server on [host] with the standard layout (/bin as
    the program directory, /users/<owner> as the home directory) and
    register the storage service in the given scope. *)
val start :
  Vmsg.t Kernel.host ->
  name:string ->
  ?owner:string ->
  ?scope:Service.scope ->
  unit ->
  t

val pid : t -> Pid.t
val name : t -> string

(** {1 Overload protection}

    Off by default. Enabling stores the policy on the server record and
    installs it on the live serving process; [restart_from] re-installs
    it on the replacement process automatically. *)

(** [enable_admission t domain ()] — default config
    {!Admission.file_server}. *)
val enable_admission :
  t -> Vmsg.t Kernel.domain -> ?config:Admission.config -> unit -> unit

val disable_admission : t -> Vmsg.t Kernel.domain -> unit
val admission_config : t -> Admission.config option

(** Boot a fresh server process over the state of a crashed one: the
    disk and directory structure survive, buffered pages and open
    instances do not. The new process has a new pid and re-registers the
    storage service (what logical prefix bindings re-resolve to). *)
val restart_from : t -> Vmsg.t Kernel.host -> ?scope:Service.scope -> unit -> t

(** Direct access to the underlying filesystem and disk, for scenario
    setup and benchmarks. Live traffic uses the protocols. *)
val fs : t -> Fs.t

val disk : t -> Disk.t
val stats : t -> Csnh.server_stats

(** Highest replicated-write sequence number this member has durably
    applied from [origin] (see {!Vnaming.Seq_guard}); 0 if none. Used
    by a catch-up to decide whether the trimmed group log still covers
    this member. *)
val applied_wseq : t -> origin:int -> int

(** Currently open instances — 0 once every client has released (the
    no-orphan-instances invariant fault injection checks). *)
val open_instance_count : t -> int

(** How many blocks to prefetch past each sequential read (0 disables;
    the default is 1). *)
val set_read_ahead : t -> int -> unit

(** A fully specified context on this server. *)
val spec : t -> context:Context.id -> Context.spec

(** The low-level identifier (inode number) of a path — what a §2.1
    centralized name server hands out. *)
val low_id_of_path : t -> string -> int option
