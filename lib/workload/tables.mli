(** Plain-text table rendering for the benchmark harness. *)

val print_title : string -> unit
val print_section : string -> unit

(** Aligned columns; the first column is left-aligned. *)
val print_table : header:string list -> string list list -> unit

type comparison = {
  label : string;
  paper : float option;  (** the figure the paper reports, if any *)
  measured : float;
  unit_ : string;
}

(** Paper-vs-measured with relative deviation. *)
val print_comparison : comparison list -> unit

val ms : float -> string
val count : int -> string

(** {1 JSON recording}

    Every comparison and table printed is also recorded, grouped under
    the most recent {!print_title}, so the harness can dump a
    machine-readable summary of a run. *)

(** Record an extra JSON entry under the current title. *)
val record : Vobs.Json.t -> unit

(** {1 Run metadata}

    The harness opens a ["_meta"] entry per experiment it runs; the
    experiment fills in what it knows. The dump then starts with a
    self-describing ["_meta"] object (tool, version, per-experiment
    seed and sim horizon) that {!results_json} prepends. *)

(** [begin_experiment name] opens the metadata entry subsequent
    {!note_meta} calls fill. Called by the harness before each
    experiment. *)
val begin_experiment : string -> unit

(** [note_meta ?seed ?horizon_ms ?events_executed ?wall_s ()] records
    the current experiment's seed, simulated horizon, simulator events
    executed, and/or host wall-clock seconds. [wall_s] is the one
    non-deterministic field of a dump — regression gating ignores it.
    A no-op outside a harness run. *)
val note_meta :
  ?seed:int ->
  ?horizon_ms:float ->
  ?events_executed:int ->
  ?wall_s:float ->
  unit ->
  unit

(** [note_removed name] declares experiment [name] (short name, e.g.
    ["e5"]) deliberately retired: it is listed under
    ["_meta"."removed"], which downgrades the bench-regression gate's
    missing-baseline-metric failure to a warning for that experiment.
    Regenerating the baseline is the permanent fix. *)
val note_removed : string -> unit

(** Everything recorded so far: an object mapping each title to its
    entries, in print order, preceded by ["_meta"] when the harness
    opened experiment entries. *)
val results_json : unit -> Vobs.Json.t
