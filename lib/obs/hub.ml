(* The hub is the per-deployment observability handle: it owns trace and
   span numbering, the bounded span store, the metrics registry, the
   flight recorder, and (when attached) the SLO engine. One hub is
   shared by every host in a simulated internetwork — the point of
   distributed tracing is precisely that spans from different hosts land
   in the same store, keyed by trace id.

   Tracing is fixed when the hub is created. With tracing off,
   [start_trace] hands out [Span.no_ctx] and [start_span] returns [None],
   so instrumented code pays one test per hop. Nothing here ever touches
   the simulation clock: callers pass [~now] in, which keeps simulated
   timings bit-identical whether observability is on or off.

   Span eviction is tail-based: when the store overflows, spans
   belonging to interesting traces — one that errored, retried, failed
   over, hit a fault, or is still open — survive, and boring (clean,
   finished) traces drop first, oldest first. Every evicted span counts
   into [spans_dropped] and the ("obs", "hub", "spans-dropped") metric,
   so a trimmed store is visible instead of silent. *)

type t = {
  tracing : bool;
  mutable next_trace : int;
  mutable next_span : int;
  span_limit : int;
  mutable spans : Span.t list;  (* newest first, trimmed at span_limit *)
  mutable span_count : int;
  mutable spans_dropped : int;
  mutable last_trace : int;  (* 0 = no trace started yet *)
  metrics : Metrics.t;
  events : Eventlog.t;
  mutable slo : Slo.t option;
  (* Head sampling: keep 1-in-[sample_every] traces, decided at
     start_trace by a private Srand stream (zero draws from any
     workload PRNG). 1 = keep everything (the default). *)
  mutable sample_every : int;
  mutable sample_rand : Srand.t;
  mutable sampled_out : int;
  mutable timeseries : Timeseries.t option;
}

let create ?(tracing = false) ?(span_limit = 10_000) ?event_capacity () =
  let t =
    {
      tracing;
      next_trace = 1;
      next_span = 1;
      span_limit;
      spans = [];
      span_count = 0;
      spans_dropped = 0;
      last_trace = 0;
      metrics = Metrics.create ();
      events = Eventlog.create ?capacity:event_capacity ();
      slo = None;
      sample_every = 1;
      sample_rand = Srand.create ~seed:0;
      sampled_out = 0;
      timeseries = None;
    }
  in
  (* Mirror flight-recorder loss into a metric: a soak that silently
     trims its recorder is visible from the metrics artifact alone. *)
  Eventlog.set_on_drop t.events (fun lost ->
      Metrics.incr ~by:lost t.metrics ~host:"obs" ~server:"eventlog"
        ~op:"events-dropped");
  t

let tracing t = t.tracing
let metrics t = t.metrics
let events t = t.events
let slo t = t.slo
let set_slo t engine = t.slo <- engine
let spans_dropped t = t.spans_dropped

let set_head_sampling t ~every ~seed =
  if every < 1 then invalid_arg "Hub.set_head_sampling: every must be >= 1";
  t.sample_every <- every;
  t.sample_rand <- Srand.create ~seed

let sample_every t = t.sample_every
let sampled_out t = t.sampled_out
let rollup t = Metrics.rollup t.metrics
let set_rollup t r = Metrics.set_rollup t.metrics r
let timeseries t = t.timeseries
let set_timeseries t ts = t.timeseries <- ts

(* Refresh the obs-health metrics from the hub's own internals. Called
   at export time rather than on every recording so the hot path stays
   cheap; counters below are gauges-in-spirit (monotone totals). *)
let sync_health_metrics t =
  Metrics.set_gauge t.metrics ~host:"obs" ~server:"hub" ~op:"sampled-out"
    (float_of_int t.sampled_out);
  Metrics.set_gauge t.metrics ~host:"obs" ~server:"eventlog"
    ~op:"dropped-total"
    (float_of_int (Eventlog.dropped t.events));
  Metrics.set_gauge t.metrics ~host:"obs" ~server:"hub" ~op:"spans-dropped-total"
    (float_of_int t.spans_dropped);
  (match Metrics.rollup t.metrics with
  | Some r ->
      Metrics.set_gauge t.metrics ~host:"obs" ~server:"rollup"
        ~op:"keys-dropped"
        (float_of_int (Rollup.keys_dropped r));
      Metrics.set_gauge t.metrics ~host:"obs" ~server:"rollup" ~op:"key-count"
        (float_of_int (Rollup.key_count r))
  | None -> ());
  match t.timeseries with
  | Some ts ->
      Metrics.set_gauge t.metrics ~host:"obs" ~server:"timeseries"
        ~op:"series-dropped"
        (float_of_int (Timeseries.series_dropped ts))
  | None -> ()

(* The instrumentation sites below every layer hold a [t option] — the
   hub attached to their domain, if any — so the guard, the formatter
   and the counter take one. *)
let recording = function
  | Some t -> Eventlog.enabled t.events
  | None -> false

(* The label is formatted only when the recorder is on; otherwise
   [ikfprintf] consumes the arguments without running any printer.
   Applying a format still builds its argument closures, which is why
   the hottest sites test [recording] before calling this at all. *)
let eventf hub ~at ~cat ~host ~trace fmt =
  match hub with
  | Some t when Eventlog.enabled t.events ->
      Format.kasprintf
        (fun label -> Eventlog.record t.events ~at ~cat ~host ~trace label)
        fmt
  | Some _ | None -> Format.ikfprintf ignore Format.str_formatter fmt

let count ?by hub ~host ~server ~op =
  match hub with
  | Some t -> Metrics.incr ?by t.metrics ~host ~server ~op
  | None -> ()

(* Head sampling composes with the tail-based eviction below: heads
   decide *which traces exist at all* (1-in-N, cheap, at the root),
   tails decide *which recorded spans survive memory pressure*
   (interesting traces last). A sampled-out request gets [Span.no_ctx]
   and pays nothing downstream — every hop's [start_span] is one test. *)
let start_trace t ~now =
  if not t.tracing then Span.no_ctx
  else if t.sample_every > 1 && Srand.int t.sample_rand t.sample_every <> 0
  then begin
    t.sampled_out <- t.sampled_out + 1;
    Span.no_ctx
  end
  else begin
    let id = t.next_trace in
    t.next_trace <- id + 1;
    t.last_trace <- id;
    { Span.trace = id; parent = 0; sent_at = now }
  end

(* A span worth keeping under eviction pressure: its op failed or is
   still in flight, or the client annotated it with retry/failover/fault
   trouble. Trace-level interest is any interesting span in the trace —
   a clean hop of a retried trace still explains the retry. *)
let interesting_tag tag =
  tag = "fault"
  || (String.length tag >= 6 && String.sub tag 0 6 = "retry:")
  || (String.length tag >= 9 && String.sub tag 0 9 = "failover:")

let interesting_span s =
  (match s.Span.outcome with "OK" | "forward" -> false | _ -> true)
  || List.exists interesting_tag s.Span.tags

(* Tail-based trim: drop down to span_limit/2 (amortising the O(n)
   pass), boring traces first. Interesting-trace spans are kept up to
   3/4 of the limit — under pathological all-interesting load they too
   drop, oldest first, and each trim still frees at least a quarter of
   the store so the amortisation holds. *)
let trim t =
  let interesting = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if interesting_span s then Hashtbl.replace interesting s.Span.trace_id ())
    t.spans;
  let target = t.span_limit / 2 in
  let interesting_limit = t.span_limit * 3 / 4 in
  let kept = ref 0 in
  let keep s =
    let limit =
      if Hashtbl.mem interesting s.Span.trace_id then interesting_limit
      else target
    in
    if !kept < limit then begin
      incr kept;
      true
    end
    else false
  in
  t.spans <- List.filter keep t.spans;
  let dropped = t.span_count - !kept in
  t.span_count <- !kept;
  t.spans_dropped <- t.spans_dropped + dropped;
  Metrics.incr ~by:dropped t.metrics ~host:"obs" ~server:"hub"
    ~op:"spans-dropped"

let record t span =
  t.spans <- span :: t.spans;
  t.span_count <- t.span_count + 1;
  if t.span_count > t.span_limit then trim t

let start_span t ~ctx ~now ~op ~host ~server ~pid ~context ~index_from =
  if not (t.tracing && Span.is_traced ctx) then None
  else begin
    let id = t.next_span in
    t.next_span <- id + 1;
    let span =
      {
        Span.trace_id = ctx.Span.trace;
        span_id = id;
        parent_id = ctx.Span.parent;
        op;
        host;
        server;
        pid;
        context;
        index_from;
        index_to = index_from;
        queue_wait = now -. ctx.Span.sent_at;
        started = now;
        finished = now;
        outcome = "open";
        tags = [];
      }
    in
    record t span;
    Some span
  end

let finish _t span ~now ?index_to ~outcome () =
  span.Span.finished <- now;
  span.Span.outcome <- outcome;
  match index_to with
  | Some i -> span.Span.index_to <- i
  | None -> ()

(* Context a traced hop hands to the request it forwards (or to a fresh
   transaction it issues): same trace, this span as parent, reissued now. *)
let child_ctx span ~now =
  { Span.trace = span.Span.trace_id; parent = span.Span.span_id; sent_at = now }

let last_trace t = if t.last_trace = 0 then None else Some t.last_trace

let trace_spans t id =
  List.filter (fun s -> s.Span.trace_id = id) t.spans
  |> List.sort (fun a b -> compare a.Span.span_id b.Span.span_id)

let all_spans t =
  List.sort (fun a b -> compare a.Span.span_id b.Span.span_id) t.spans
