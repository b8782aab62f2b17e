(** Hierarchical metric rollups: leaf -> group -> fleet aggregation
    with bounded cardinality.

    Every recording fans out to three levels: the leaf scope itself
    (a host, a link), its group (the caller-supplied [group_of] —
    typically edge-switch identity), and the single fleet scope.
    Group/fleet cardinality is O(groups + servers) regardless of host
    count; leaf cardinality is bounded by [leaf_cap], and observations
    against refused leaf keys are counted in {!keys_dropped} while
    still landing in the aggregates — fleet totals stay exact when
    per-leaf detail saturates.

    Counters sum; gauges keep the latest value at leaves and the peak
    at aggregates; histograms accumulate bucket-wise. Recording never reads
    a clock and draws nothing from any workload PRNG (exemplar
    reservoirs use a private {!Srand} stream). *)

type t

type level = Leaf | Group | Fleet

val level_to_string : level -> string

type key = { scope : string; server : string; op : string }

val pp_key : Format.formatter -> key -> unit
val compare_key : key -> key -> int

(** [create ~group_of ()] makes an empty rollup. [group_of leaf] names
    the leaf's aggregation group, or [None] for leaves with no group
    (they still reach the fleet level). [leaf_cap] (default 4096)
    bounds distinct leaf keys; [exemplar_slots] enables per-bucket
    trace exemplars in all histograms; [seed] fixes the private
    exemplar-reservoir PRNG.
    @raise Invalid_argument when [leaf_cap < 1]. *)
val create :
  ?leaf_cap:int ->
  ?bounds:float array ->
  ?exemplar_slots:int ->
  ?seed:int ->
  group_of:(string -> string option) ->
  unit ->
  t

val incr : ?by:int -> t -> leaf:string -> server:string -> op:string -> unit
val set_gauge : t -> leaf:string -> server:string -> op:string -> float -> unit

(** [observe ?trace t ~leaf ~server ~op v] records a histogram sample
    at all three levels; a positive [trace] id is offered to the target
    bucket's exemplar reservoir when exemplars are enabled. *)
val observe :
  ?trace:int -> t -> leaf:string -> server:string -> op:string -> float -> unit

(** Observations refused because they would have created a leaf key
    beyond [leaf_cap]. *)
val keys_dropped : t -> int

(** Distinct admitted keys across all levels. *)
val key_count : t -> int

val key_count_at : t -> level -> int

(** Readers, sorted by key. *)

val counters : t -> level -> (key * int) list
val gauges : t -> level -> (key * float) list
val histograms : t -> level -> (key * Histogram.t) list

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
