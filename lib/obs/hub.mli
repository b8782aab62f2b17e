(** The per-deployment observability handle: trace/span numbering, the
    bounded span store, the metrics registry, the flight recorder, and
    (when attached) the SLO engine. One hub is shared by every host in
    a simulated internetwork, so spans from different hosts land in one
    store keyed by trace id.

    Nothing here reads or advances the simulation clock — callers pass
    [~now] — so simulated timings are bit-identical with observability
    on or off. *)

type t

(** [create ()] makes a hub with tracing off and the flight recorder
    present but disabled. The span store keeps at most
    [span_limit] spans; eviction is tail-based — see {!spans_dropped}. *)
val create : ?tracing:bool -> ?span_limit:int -> ?event_capacity:int -> unit -> t

val tracing : t -> bool
val metrics : t -> Metrics.t

(** The hub's flight recorder (disabled until
    [Eventlog.set_enabled]). *)
val events : t -> Eventlog.t

(** The attached SLO engine, if any; the runtime feeds every finished
    client op to it. *)
val slo : t -> Slo.t option

val set_slo : t -> Slo.t option -> unit

(** {1 Recording from instrumented layers}

    Each layer holds the hub attached to its domain as a [t option];
    these take it as is, so a layer needs no code of its own to
    guard, format or count. *)

(** [recording hub]: [hub] is attached and its flight recorder is on.
    Hot paths test this before building any event argument. *)
val recording : t option -> bool

(** [eventf hub ~at ~cat ~host ~trace fmt ...] formats a label and
    records it in the flight recorder ([trace] 0 = none). When [hub]
    is absent or its recorder is off, no label is built and no [%a]
    printer runs. *)
val eventf :
  t option ->
  at:float ->
  cat:Eventlog.cat ->
  host:string ->
  trace:int ->
  ('a, Format.formatter, unit) format ->
  'a

(** [count ?by hub ~host ~server ~op] is {!Metrics.incr} on an attached
    hub's registry, and nothing when [hub] is absent. *)
val count :
  ?by:int -> t option -> host:string -> server:string -> op:string -> unit

(** Spans evicted from the bounded store so far. Eviction is
    tail-based: traces that errored, retried, failed over, hit a fault
    or are still open survive; boring finished traces drop first,
    oldest first. Also counted under the ("obs", "hub",
    "spans-dropped") metric. *)
val spans_dropped : t -> int

(** [set_head_sampling t ~every ~seed] keeps 1-in-[every] traces,
    decided at {!start_trace} by a private deterministic PRNG — zero
    draws from any workload stream, so sampled and unsampled runs are
    behaviourally identical. [every = 1] (the default) keeps all.
    Composes with tail-based span eviction: heads choose which traces
    exist, tails choose which recorded spans survive memory pressure.
    @raise Invalid_argument when [every < 1]. *)
val set_head_sampling : t -> every:int -> seed:int -> unit

val sample_every : t -> int

(** Traces refused by head sampling so far. *)
val sampled_out : t -> int

(** The rollup attached to this hub's metrics registry, if any
    (see {!Metrics.set_rollup}). *)
val rollup : t -> Rollup.t option

val set_rollup : t -> Rollup.t option -> unit

(** The attached time-series store, if any; samplers (the kernel
    telemetry pump) feed it, exporters and [vsh top] read it. *)
val timeseries : t -> Timeseries.t option

val set_timeseries : t -> Timeseries.t option -> unit

(** Refresh the obs-health metrics (eventlog drops, span evictions,
    sampled-out traces, rollup key pressure, time-series refusals)
    from the hub's internals. Exporters call this before reading. *)
val sync_health_metrics : t -> unit

(** [start_trace t ~now] allocates a fresh trace and returns the context
    to attach to the outgoing request. Returns {!Span.no_ctx} when
    tracing is off or head sampling rejects the trace. *)
val start_trace : t -> now:float -> Span.ctx

(** [start_span t ~ctx ...] opens a span for one hop of a traced
    request; [None] when tracing is off or [ctx] is untraced. The span
    is already recorded in the store — mutate it via {!finish}. *)
val start_span :
  t ->
  ctx:Span.ctx ->
  now:float ->
  op:string ->
  host:string ->
  server:string ->
  pid:int ->
  context:int ->
  index_from:int ->
  Span.t option

(** [finish t span ~now ?index_to ~outcome ()] closes a span, recording
    completion time, consumed name index, and outcome (a reply code
    string, or ["forward"]). *)
val finish :
  t -> Span.t -> now:float -> ?index_to:int -> outcome:string -> unit -> unit

(** [child_ctx span ~now] is the context a traced hop attaches to the
    request it forwards: same trace, [span] as parent, reissued at
    [now]. *)
val child_ctx : Span.t -> now:float -> Span.ctx

(** Most recently started trace id, if any trace has been started. *)
val last_trace : t -> int option

(** All stored spans of a trace, ordered by span id (creation order). *)
val trace_spans : t -> int -> Span.t list

val all_spans : t -> Span.t list
