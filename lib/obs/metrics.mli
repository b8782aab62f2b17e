(** The metrics registry: counters, gauges and fixed-bucket latency
    histograms keyed by (host, server, operation).

    Recording never touches simulated time, so instrumented and
    uninstrumented runs produce bit-identical results. Instruments are
    created lazily on first use.

    Two storage modes share the recording API. Flat mode (the default)
    keeps one instrument per concrete key — unbounded cardinality, fine
    below fleet scale. Attaching a {!Rollup} via {!set_rollup} forwards
    every recording into the rollup's leaf/group/fleet tree (host as
    leaf scope) instead; the flat tables then stay empty and the flat
    readers report zero/absent — at scale, read the rollup. *)

(** The histogram implementation, re-exported so existing
    [Metrics.Histogram] call sites keep working; see {!Histogram}. *)
module Histogram = Histogram

type key = { host : string; server : string; op : string }

val pp_key : Format.formatter -> key -> unit

type t

val create : ?bounds:float array -> unit -> t

(** The attached rollup, if the registry is in scale mode. *)
val rollup : t -> Rollup.t option

(** [set_rollup t (Some r)] switches the registry to scale mode: all
    subsequent recordings land in [r] rather than the flat tables.
    [set_rollup t None] returns to flat mode. *)
val set_rollup : t -> Rollup.t option -> unit

(** Recording. *)

val incr : ?by:int -> t -> host:string -> server:string -> op:string -> unit
val set_gauge : t -> host:string -> server:string -> op:string -> float -> unit

(** [observe ?trace t ~host ~server ~op v] records a histogram sample.
    In rollup mode a positive [trace] id is offered to the bucket's
    exemplar reservoir when the rollup keeps exemplars; flat histograms
    keep none. *)
val observe :
  ?trace:int -> t -> host:string -> server:string -> op:string -> float -> unit

(** Reading (flat mode; in rollup mode these report zero/absent). *)

(** [counter_value] is 0 for a counter never incremented. *)
val counter_value : t -> host:string -> server:string -> op:string -> int

val histogram : t -> host:string -> server:string -> op:string -> Histogram.t option

(** All instruments, sorted by (host, server, op). *)

val counters : t -> (key * int) list
val gauges : t -> (key * float) list
val histograms : t -> (key * Histogram.t) list

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
