(** Fixed-bucket histograms with optional exemplar reservoirs.

    One invariant ties the reading APIs together: the overflow bucket's
    upper edge is always the observed maximum — [buckets], [to_json]
    and [quantile] agree on it. "+Inf" exists only in the Prometheus
    wire format (see {!Export}), where the spec mandates it. *)

type t

type exemplar = { trace : int; value : float }

(** Bucket upper bounds in simulated ms, suitable for IPC and file
    access latencies. *)
val default_bounds : float array

(** [create ~bounds ()] makes an empty histogram. [bounds] must be
    strictly increasing; an overflow bucket is added automatically.
    [exemplar_slots] (default 0 = off) is the per-bucket reservoir
    capacity for trace exemplars.
    @raise Invalid_argument on empty or non-increasing bounds, or a
    negative [exemplar_slots]. *)
val create : ?bounds:float array -> ?exemplar_slots:int -> unit -> t

(** [observe ?trace ?rand t x] records one sample. When the histogram
    keeps exemplars and both a positive [trace] id and a [rand] stream
    are supplied, [x] is offered to the target bucket's reservoir
    (algorithm R — a uniform sample of that bucket's traced
    observations). Plain [observe t x] never touches the reservoirs. *)
val observe : ?trace:int -> ?rand:Srand.t -> t -> float -> unit

val count : t -> int
val sum : t -> float

(** [mean], [min_], [max_] are [nan] on an empty histogram. *)
val mean : t -> float

val min_ : t -> float
val max_ : t -> float

(** [quantile t q] estimates the [q]-quantile by linear interpolation
    inside the bucket holding the target rank, clamped to the observed
    [min_, max_] range. [nan] on an empty histogram.
    @raise Invalid_argument unless [0 <= q <= 1]. *)
val quantile : t -> float -> float

(** Occupied buckets as [(lower, upper, count)] rows, edges clamped to
    the observed range (the overflow row's upper edge is [max_]). *)
val buckets : t -> (float * float * int) list

(** The configured bucket upper bounds (a copy, without the overflow
    bucket). *)
val bounds : t -> float array

(** Per-bucket counts (a copy); one slot longer than [bounds] — the
    last slot is the overflow bucket. For exporters that need the raw
    layout rather than the clamped [buckets] view. *)
val raw_counts : t -> int array

(** Exemplars held by bucket [b] (raw index into [raw_counts]); [] when
    reservoirs are off or the bucket is empty. *)
val exemplars : t -> int -> exemplar list

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
