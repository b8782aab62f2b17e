(* One repetition of one workload in a fresh process: generate the
   seeded inputs, build the installation (timed as set-up), run the
   engine (timed, with events and allocation counted), check every
   result, and report it all as one JSON object. Host time is process
   CPU time; simulated time is the engine's clock. *)

open Common
module Json = Vobs.Json
module En = Vsim.Engine

module type WORKLOAD = sig
  type inputs

  val generate : size -> seed:int -> inputs
  val digest : inputs -> string
  val attempted : inputs -> int
  val setup : ?spans:Spans.t -> ?tamper:tamper -> inputs -> prepared
end

let workloads =
  [
    ("ipc-soak", (module Soak : WORKLOAD));
    ("name-lookup", (module Lookup : WORKLOAD));
    ("name-churn", (module Churn : WORKLOAD));
  ]

let find name = List.assoc_opt name workloads

type result = {
  digest : string;
  outcome : outcome;
  setup_s : float;
      (** CPU seconds building and populating the installation: the
          median of [setups] set-ups *)
  run_cpu_s : float;  (** CPU seconds of the engine-run phase *)
  events : int;
  minor_words : float;
  promoted_words : float;
  top_heap_words : int;
  sim_ms : float;  (** simulated span of the run *)
  spans : Spans.t option;
}

let digest (module W : WORKLOAD) size ~seed = W.digest (W.generate size ~seed)

(* Set-ups timed per repetition. One set-up takes 15 to 60 ms of CPU,
   too short to time steadily once, so [setup_s] is a median. *)
let setups = 9

let run (module W : WORKLOAD) ?(tamper = Honest) ~traced size ~seed =
  let inputs = W.generate size ~seed in
  let digest = W.digest inputs in
  let spans =
    if traced then Some (Spans.create (W.attempted inputs)) else None
  in
  (* One set-up and its CPU seconds, started on a collected heap. *)
  let time_setup ?spans ~tamper () =
    Gc.full_major ();
    let c0 = Sys.time () in
    let p = W.setup ?spans ~tamper inputs in
    (p, Sys.time () -. c0)
  in
  let p, first_setup_s = time_setup ?spans ~tamper () in
  (* A completed major cycle and an empty minor heap at the start make
     the promoted-word count of the run repeat exactly. *)
  Gc.full_major ();
  let mw0 = Gc.minor_words () in
  let pw0 = (Gc.quick_stat ()).Gc.promoted_words in
  let ev0 = En.executed p.engine in
  let c1 = Sys.time () in
  p.run ();
  let run_cpu_s = Sys.time () -. c1 in
  let mw1 = Gc.minor_words () in
  let st = Gc.quick_stat () in
  let events = En.executed p.engine - ev0 in
  let sim_ms = En.now p.engine in
  let outcome = p.finish () in
  (* The other set-ups come after everything above is measured, so they
     leave the run's figures as they were. Their installations are
     never run. *)
  let more =
    Array.init (setups - 1) (fun _ -> snd (time_setup ~tamper:Honest ()))
  in
  {
    digest;
    outcome;
    setup_s = quantile (Array.append [| first_setup_s |] more) 0.5;
    run_cpu_s;
    events;
    minor_words = mw1 -. mw0;
    promoted_words = st.Gc.promoted_words -. pw0;
    top_heap_words = st.Gc.top_heap_words;
    sim_ms;
    spans;
  }

(* Route shares and simulated p50 per route, from the traced run's
   spans. *)
let route_summary (sp : Spans.t) =
  List.concat_map
    (fun route ->
      let idx = route_index route in
      let lat = ref [] in
      for i = 0 to sp.Spans.n - 1 do
        if sp.Spans.routes.(i) = idx then
          lat := (sp.Spans.ends.(i) -. sp.Spans.starts.(i)) :: !lat
      done;
      let sample = Array.of_list !lat in
      let name = route_name route in
      [
        (Fmt.str "route.%s_share" name, ratio (Array.length sample) sp.Spans.n);
        (Fmt.str "route.%s_p50_sim_ms" name, quantile sample 0.5);
      ])
    routes

let to_json r =
  let o = r.outcome in
  let txns = float_of_int o.attempted in
  let completed = float_of_int (o.attempted - o.failed) in
  let floats kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs) in
  Json.Obj
    [
      ("digest", Json.String r.digest);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("notes", Json.List (List.map (fun s -> Json.String s) o.notes));
      ("ocaml", Json.String Sys.ocaml_version);
      ( "ocamlrunparam",
        Json.String
          (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")) );
      ("events", Json.Int r.events);
      ("sim_ms", Json.Float r.sim_ms);
      ( "metrics",
        floats
          [
            ("txn_per_cpu_s", completed /. r.run_cpu_s);
            ( "cpu_ns_per_event",
              r.run_cpu_s *. 1e9 /. float_of_int (max 1 r.events) );
            ("events_per_txn", float_of_int r.events /. txns);
            ("minor_words_per_txn", r.minor_words /. txns);
            ("promoted_words_per_txn", r.promoted_words /. txns);
            ( "peak_heap_mb",
              float_of_int (r.top_heap_words * (Sys.word_size / 8)) /. 1e6 );
            ("setup_s", r.setup_s);
            ("failed_ratio", float_of_int o.failed /. txns);
            ("sim_op_p50_ms", quantile o.latencies 0.5);
            ("sim_op_p99_ms", quantile o.latencies 0.99);
          ] );
      ("run_cpu_s", Json.Float r.run_cpu_s);
      ( "layers",
        floats
          (match r.spans with
          | None -> []
          | Some sp -> Counters.complete o.counters @ route_summary sp) );
    ]
