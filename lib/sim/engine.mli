(** Deterministic discrete-event engine.

    Times are in simulated {b milliseconds} throughout the V-System
    reproduction, matching the units the paper reports. Events scheduled
    for the same instant execute in scheduling order.

    The queue behind the engine is one of two backends implementing the
    same (time, seq) total order: the hierarchical timer wheel
    ({!Wheel}, the default — O(1) scheduling and cancellation) or the
    original binary heap, kept as the property-test oracle and the
    throughput-bench baseline. A run's event order is identical on
    either. *)

type t

type backend =
  | Wheel_queue  (** hierarchical timer wheel (default) *)
  | Heap_queue  (** binary heap: the oracle/baseline backend *)

(** Raised by [schedule_at] when asked to schedule in the past. *)
exception Time_went_backwards of { now : float; requested : float }

val create : ?backend:backend -> unit -> t

val backend : t -> backend

(** Current simulated time (ms). *)
val now : t -> float

(** Number of live (scheduled, not cancelled) events waiting. *)
val pending : t -> int

(** Total number of events executed so far. *)
val executed : t -> int

(** Total number of timers cancelled before firing. *)
val cancelled_timers : t -> int

(** [schedule ?delay t f] runs [f] at [now t +. delay] (default: now). *)
val schedule : ?delay:float -> t -> (unit -> unit) -> unit

(** [schedule_at t time f] runs [f] at absolute [time]. *)
val schedule_at : t -> float -> (unit -> unit) -> unit

(** {1 Cancellable timers}

    [timer]/[timer_at] are [schedule]/[schedule_at] returning a handle;
    [cancel] is O(1) and the cancelled action never runs. Cancelling a
    timer that already fired (or was already cancelled) is a no-op —
    including from an event executing at the timer's own timestamp. *)

type timer

val timer : ?delay:float -> t -> (unit -> unit) -> timer
val cancel : t -> timer -> unit

(** Execute the single earliest event. Returns [false] if the queue was
    empty. *)
val step : t -> bool

(** Run until the queue empties, [until] (inclusive) is reached, or
    [max_events] events have executed. Not reentrant. *)
val run : ?until:float -> ?max_events:int -> t -> unit

(** {1 Throughput introspection}

    Bookkeeping for `vsh engine stats` and the bench harness; reads the
    process clock but never influences the simulation. *)

(** Events executed by the most recent [run]. *)
val last_run_events : t -> int

(** CPU seconds the most recent [run] took. *)
val last_run_cpu_s : t -> float

(** Events/sec of the current run if one is in progress, else of the
    last completed run (0 before any run). *)
val events_per_sec : t -> float

(** Events executed across every engine in the process — the bench
    harness's per-experiment trajectory counter. *)
val global_executed : unit -> int
