(* Shared vocabulary of the host-cost benchmark: sizes, deliberate
   tampering (how the tests prove each correctness check can fail),
   the per-op span recorder of the traced run, and the outcome every
   workload reports after its engine-run phase. *)

type size = Full | Tiny

(* One corruption per correctness check. Each workload acts only on the
   variants that concern it; [Honest] is every real run. *)
type tamper =
  | Honest
  | Wrong_echo  (** ipc-soak: expect a different echo for one request *)
  | Wrong_size  (** name-lookup: expect a different file size on one Open *)
  | Wrong_name  (** name-lookup: expect a different name from one Query *)
  | Leak_instance  (** name-lookup: skip one release *)
  | Wrong_model  (** name-churn: one client's model gains a phantom name *)
  | Diverge_member  (** name-churn: unlink a name on one member after the run *)

(* How a client operation was routed, as the traced run classifies it
   from outside the library (name-cache and resolver counters before and
   after the call). *)
type route = Hit | Miss | Resolver | Uncached

let routes = [ Hit; Miss; Resolver; Uncached ]

let route_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Resolver -> "resolver"
  | Uncached -> "uncached"

let route_index = function Hit -> 0 | Miss -> 1 | Resolver -> 2 | Uncached -> 3

(* Spans of the traced run: one per client operation, kept in
   preallocated arrays so recording allocates nothing per op. The trace
   id is the op's global index plus one. *)
module Spans = struct
  type t = {
    mutable n : int;
    ids : int array;
    starts : float array;
    ends : float array;
    routes : int array;
  }

  let create capacity =
    {
      n = 0;
      ids = Array.make capacity 0;
      starts = Array.make capacity 0.0;
      ends = Array.make capacity 0.0;
      routes = Array.make capacity 0;
    }

  let record t ~id ~route ~start ~stop =
    let i = t.n in
    if i < Array.length t.ids then begin
      t.ids.(i) <- id;
      t.starts.(i) <- start;
      t.ends.(i) <- stop;
      t.routes.(i) <- route_index route;
      t.n <- i + 1
    end
end

(* What a workload hands back after its engine-run phase and checks. *)
type outcome = {
  attempted : int;  (** client operations issued *)
  failed : int;  (** failed or incorrect operations plus invariant violations *)
  latencies : float array;  (** simulated ms of each attempted op *)
  counters : (string * float) list;  (** per-layer counters (traced run) *)
  notes : string list;  (** the first few failure details *)
}

(* A built installation, ready for its measured phase. *)
type prepared = {
  engine : Vsim.Engine.t;
  run : unit -> unit;  (** the engine-run phase: everything timed *)
  finish : unit -> outcome;  (** correctness checks, after the run *)
}

(* Failure bookkeeping shared by the workloads: a count plus the first
   few details, so a broken run explains itself without flooding. *)
module Failures = struct
  type t = { mutable count : int; mutable notes : string list }

  let create () = { count = 0; notes = [] }

  let add t detail =
    t.count <- t.count + 1;
    if t.count <= 5 then t.notes <- detail :: t.notes

  let addf t fmt = Fmt.kstr (add t) fmt
  let notes t = List.rev t.notes

  (* An operation that must succeed. *)
  let check t what = function
    | Ok () -> ()
    | Error e -> addf t "%s: %a" what Vio.Verr.pp e

  (* Each invariant violation counts as one failure. *)
  let violations t =
    List.iter (fun (v : Vfault.Invariant.violation) ->
        addf t "%s: %s" v.Vfault.Invariant.invariant v.Vfault.Invariant.detail)
end

let ratio num den =
  if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Linear-interpolation quantile of an unsorted sample (copied, so the
   caller's array is untouched). 0 for an empty sample. *)
let quantile sample q =
  let n = Array.length sample in
  if n = 0 then 0.0
  else begin
    let s = Array.copy sample in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

(* A kernel counter from an observability hub's registry, summed over
   hosts. *)
let kernel_counter hub op =
  List.fold_left
    (fun acc ((k : Vobs.Metrics.key), v) ->
      if k.Vobs.Metrics.server = "kernel" && k.Vobs.Metrics.op = op then
        acc + v
      else acc)
    0
    (Vobs.Metrics.counters (Vobs.Hub.metrics hub))

(* The engine, network and kernel counters every workload reports,
   normalised per transaction. The kernel counts forwards and group
   sends in the hub attached to its domain. *)
let fabric_counters ~txns ~ipc_txns eng net hub =
  let forwards = kernel_counter hub "forward" in
  let group_sends =
    kernel_counter hub "group-send" + kernel_counter hub "forward-group"
  in
  let c = Vnet.Ethernet.counters net in
  let now = Vsim.Engine.now eng in
  let queue_peak, busy_max =
    List.fold_left
      (fun (peak, busy) (s : Vnet.Ethernet.link_stat) ->
        ( max peak s.Vnet.Ethernet.ls_queue_peak,
          Float.max busy
            (if now > 0.0 then s.Vnet.Ethernet.ls_busy_ms /. now *. 100.0
             else 0.0) ))
      (0, 0.0)
      (Vnet.Ethernet.link_stats net)
  in
  [
    ( "engine.timers_cancelled_per_txn",
      ratio (Vsim.Engine.cancelled_timers eng) txns );
    ("net.frames_per_txn", ratio c.Vnet.Ethernet.frames_sent txns);
    ("net.bytes_per_txn", ratio c.Vnet.Ethernet.bytes_sent txns);
    ("net.link_queue_peak", float_of_int queue_peak);
    ("net.link_busy_max_pct", busy_max);
    ("kernel.ipc_txn_per_txn", ratio ipc_txns txns);
    ("kernel.forwards_per_txn", ratio forwards txns);
    ("kernel.group_sends_per_txn", ratio group_sends txns);
  ]
