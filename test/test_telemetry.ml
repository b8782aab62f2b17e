(* Tests for the scale-telemetry layer: deterministic head sampling,
   rollup cardinality bounds, histogram overflow and exemplar
   reservoirs, time-series downsampling and caps, eventlog drop
   accounting, the shared flight-recorder formatter, and the
   deferred-scrape counter flush. *)

module K = Vkernel.Kernel
module E = Vnet.Ethernet
module C = Vnet.Calibration
module H = Vobs.Histogram
module R = Vobs.Rollup
module Ts = Vobs.Timeseries

let cost = { K.payload_bytes = String.length; K.segment_bytes = (fun _ -> 0) }

(* --- head sampling: deterministic, seeded, workload-independent --- *)

(* Two hubs configured identically must make the identical keep/refuse
   decision on every trace — the sampler draws from a private seeded
   stream, so nothing about the host or the workload can perturb it. *)
let prop_sampling_deterministic =
  QCheck.Test.make
    ~name:"head sampling is a pure function of (seed, every, draw index)"
    ~count:50
    QCheck.(pair (int_range 1 128) (int_range 0 10_000))
    (fun (every, seed) ->
      let mk () =
        let hub = Vobs.Hub.create ~tracing:true () in
        Vobs.Hub.set_head_sampling hub ~every ~seed;
        hub
      in
      let a = mk () and b = mk () in
      let draws = 300 in
      for i = 1 to draws do
        let ca = Vobs.Hub.start_trace a ~now:(float_of_int i) in
        (* Different [now] on purpose: the decision must not read it. *)
        let cb = Vobs.Hub.start_trace b ~now:(float_of_int (i * 7)) in
        if ca.Vobs.Span.trace > 0 <> (cb.Vobs.Span.trace > 0) then
          QCheck.Test.fail_reportf "draw %d diverged (every=%d seed=%d)" i
            every seed
      done;
      Vobs.Hub.sampled_out a = Vobs.Hub.sampled_out b)

let test_sampling_rate () =
  let hub = Vobs.Hub.create ~tracing:true () in
  Vobs.Hub.set_head_sampling hub ~every:4 ~seed:42;
  let draws = 10_000 in
  let kept = ref 0 in
  for _ = 1 to draws do
    if (Vobs.Hub.start_trace hub ~now:0.0).Vobs.Span.trace > 0 then incr kept
  done;
  Alcotest.(check int)
    "kept + refused = draws" draws
    (!kept + Vobs.Hub.sampled_out hub);
  (* 1-in-4 over 10k draws: a binomial this size stays well inside
     [1/8, 1/2] — the check catches an inverted or constant decision,
     not distribution shape. *)
  if !kept < draws / 8 || !kept > draws / 2 then
    Alcotest.failf "1-in-4 sampling kept %d of %d" !kept draws;
  let all = Vobs.Hub.create ~tracing:true () in
  Vobs.Hub.set_head_sampling all ~every:1 ~seed:42;
  for _ = 1 to 100 do
    ignore (Vobs.Hub.start_trace all ~now:0.0)
  done;
  Alcotest.(check int) "every:1 refuses nothing" 0 (Vobs.Hub.sampled_out all)

(* --- rollup: cardinality bounds --- *)

(* Group leaves in fours, like hosts under an edge switch. *)
let group_of leaf =
  match int_of_string_opt leaf with
  | Some n -> Some (Printf.sprintf "edge%d" (n / 4))
  | None -> None

let test_rollup_cap_and_drop_accounting () =
  let r = R.create ~leaf_cap:8 ~group_of () in
  for leaf = 0 to 49 do
    R.incr r ~leaf:(string_of_int leaf) ~server:"kernel" ~op:"send"
  done;
  Alcotest.(check int) "leaf keys saturate at the cap" 8 (R.key_count_at r Leaf);
  Alcotest.(check int) "refused leaf observations counted" 42 (R.keys_dropped r);
  let fleet_total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (R.counters r Fleet)
  in
  Alcotest.(check int) "fleet total stays exact past the cap" 50 fleet_total;
  (* Histograms and gauges go through the same admission: each refused
     leaf observation counts once, and the aggregates still see it. *)
  for leaf = 0 to 49 do
    let leaf = string_of_int leaf in
    R.observe r ~leaf ~server:"kernel" ~op:"lat" 1.0;
    R.set_gauge r ~leaf ~server:"kernel" ~op:"depth" 1.0
  done;
  Alcotest.(check int) "leaf keys still at the cap" 8 (R.key_count_at r Leaf);
  Alcotest.(check int) "refused observe and set_gauge counted" (42 + 50 + 50)
    (R.keys_dropped r);
  (match R.histograms r Fleet with
  | [ (_, h) ] ->
      Alcotest.(check int) "fleet histogram sees every sample" 50 (H.count h)
  | hs -> Alcotest.failf "%d fleet histograms, expected 1" (List.length hs));
  match R.gauges r Fleet with
  | [ (_, v) ] -> Alcotest.(check (float 0.0)) "fleet gauge peak" 1.0 v
  | gs -> Alcotest.failf "%d fleet gauges, expected 1" (List.length gs)

(* --- histogram: overflow bucket --- *)

let test_histogram_overflow () =
  let h = H.create ~bounds:[| 1.0; 2.0 |] () in
  List.iter (H.observe h) [ 0.5; 1.5; 10.0; 20.0 ];
  Alcotest.(check (array int))
    "raw counts, overflow last"
    [| 1; 1; 2 |]
    (H.raw_counts h);
  (match List.rev (H.buckets h) with
  | (_, upper, n) :: _ ->
      Alcotest.(check int) "overflow row count" 2 n;
      Alcotest.(check (float 1e-9)) "overflow upper edge = max" 20.0 upper
  | [] -> Alcotest.fail "no buckets");
  Alcotest.(check (float 1e-9)) "q1.0 = max" 20.0 (H.quantile h 1.0)

let test_exemplars_deterministic_and_bucketed () =
  let run () =
    let h = H.create ~bounds:[| 1.0; 2.0 |] ~exemplar_slots:2 () in
    let rand = Vobs.Srand.create ~seed:77 in
    for trace = 1 to 10 do
      H.observe ~trace ~rand h 0.5
    done;
    h
  in
  let a = run () in
  let ex = H.exemplars a 0 in
  if List.length ex < 1 || List.length ex > 2 then
    Alcotest.failf "reservoir held %d exemplars, slots 2" (List.length ex);
  List.iter
    (fun e ->
      if e.H.trace < 1 || e.H.trace > 10 then
        Alcotest.failf "exemplar trace %d never observed" e.H.trace;
      Alcotest.(check (float 1e-9)) "exemplar value" 0.5 e.H.value)
    ex;
  Alcotest.(check (list int))
    "only the target bucket holds exemplars" []
    (List.map (fun e -> e.H.trace) (H.exemplars a 1) @ List.map (fun e -> e.H.trace) (H.exemplars a 2));
  let b = run () in
  Alcotest.(check (list int))
    "seeded reservoir is deterministic"
    (List.map (fun e -> e.H.trace) (H.exemplars a 0))
    (List.map (fun e -> e.H.trace) (H.exemplars b 0))

(* --- time series: downsampling and the series cap --- *)

let test_timeseries_downsample () =
  let ts = Ts.create ~capacity:4 ~bucket_ms:1.0 () in
  for i = 0 to 31 do
    Ts.sample ts "q" Ts.Gauge ~now:(float_of_int i) (float_of_int i)
  done;
  let pts = Ts.points ts "q" in
  if List.length pts > 4 then
    Alcotest.failf "capacity 4 holds %d points" (List.length pts);
  (match Ts.bucket_ms ts "q" with
  | Some w when w >= 8.0 -> ()
  | Some w -> Alcotest.failf "bucket width %.1f never doubled to cover 32ms" w
  | None -> Alcotest.fail "series vanished");
  (match List.rev pts with
  | (_, v) :: _ ->
      Alcotest.(check (float 1e-9)) "gauge keeps the window peak" 31.0 v
  | [] -> Alcotest.fail "no points");
  Alcotest.(check bool) "sparkline renders" true (Ts.sparkline ts "q" <> "")

let test_timeseries_series_cap () =
  let ts = Ts.create ~max_series:2 () in
  List.iter
    (fun name -> Ts.sample ts name Ts.Counter ~now:0.0 1.0)
    [ "a"; "b"; "c" ];
  Alcotest.(check int) "cap admits two" 2 (Ts.series_count ts);
  Alcotest.(check int) "third refusal counted" 1 (Ts.series_dropped ts);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "refused series holds nothing" [] (Ts.points ts "c")

(* --- eventlog: bounded store surfaces its losses --- *)

let test_eventlog_drop_hook () =
  let log = Vobs.Eventlog.create ~capacity:4 () in
  Vobs.Eventlog.set_enabled log true;
  let hooked = ref 0 in
  Vobs.Eventlog.set_on_drop log (fun n -> hooked := !hooked + n);
  for i = 1 to 10 do
    Vobs.Eventlog.record log ~at:(float_of_int i) ~cat:Vobs.Eventlog.Kernel
      ~host:"h" "e"
  done;
  Alcotest.(check int) "drop hook saw every trimmed event"
    (Vobs.Eventlog.dropped log) !hooked;
  if Vobs.Eventlog.dropped log = 0 then
    Alcotest.fail "capacity 4 never trimmed under 10 records";
  Alcotest.(check int)
    "stored + dropped = recorded" 10
    (Vobs.Eventlog.count log + Vobs.Eventlog.dropped log)

(* --- deferred-scrape counters: flush moves deltas exactly once --- *)

let test_flush_metrics_deferred_and_idempotent () =
  let eng = Vsim.Engine.create () in
  let net = E.create ~config:C.ethernet_3mbit eng in
  let domain = K.create_domain ~cost eng net in
  let hub = Vobs.Hub.create () in
  K.set_obs domain hub;
  E.set_obs net hub;
  let server_host = K.boot_host domain ~name:"srv" 1 in
  let client_host = K.boot_host domain ~name:"cli" 2 in
  let server =
    K.spawn server_host ~name:"echo" (fun self ->
        let rec loop () =
          let msg, sender = K.receive self in
          ignore (K.reply self ~to_:sender msg);
          loop ()
        in
        loop ())
  in
  (* [pings n] runs [n] remote transactions to completion: each is one
     request frame from host 2 and one reply frame from host 1. *)
  let pings n =
    ignore
      (K.spawn client_host ~name:"client" (fun self ->
           for _ = 1 to n do
             match K.send self server "ping" with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "send failed: %a" K.pp_error e
           done));
    Vsim.Engine.run eng
  in
  let frame_bytes =
    C.ethernet_3mbit.C.header_bytes + 32 + String.length "ping"
  in
  (* The counts one hub's registry holds: kernel sends and receives,
     and the client port's wire counters. *)
  let counts hub =
    let m = Vobs.Hub.metrics hub in
    let kernel host op =
      Vobs.Metrics.counter_value m ~host ~server:"kernel" ~op
    in
    let wire host op = Vobs.Metrics.counter_value m ~host ~server:"net" ~op in
    [
      kernel "cli" "send";
      kernel "srv" "receive";
      wire "host2" "frames-sent";
      wire "host2" "bytes-sent";
      wire "host2" "frames-delivered";
    ]
  in
  let expect n = [ n; n; n; n * frame_bytes; n ] in
  let check msg want hub = Alcotest.(check (list int)) msg want (counts hub) in
  pings 3;
  (* Both layers' counters accumulate on the host and port records; the
     registry sees nothing until a scrape point flushes them. *)
  check "registry empty before the flush" (expect 0) hub;
  K.flush_metrics domain;
  check "flush lands kernel and wire counts" (expect 3) hub;
  K.flush_metrics domain;
  check "second flush adds nothing" (expect 3) hub;
  (* Switch to a second hub mid-run, with counts not yet flushed: they
     land in the new hub at its first flush, and the old hub keeps only
     what it was flushed before the switch. *)
  pings 2;
  let hub2 = Vobs.Hub.create () in
  K.set_obs domain hub2;
  E.set_obs net hub2;
  pings 4;
  K.flush_metrics domain;
  check "unflushed counts land in the new hub" (expect 6) hub2;
  check "the old hub keeps its pre-switch counts" (expect 3) hub;
  K.flush_metrics domain;
  check "nothing is counted twice" (expect 6) hub2

(* --- keyed recording follows a registry mode switch --- *)

let test_keyed_incr_across_set_rollup () =
  let m = Vobs.Metrics.create () in
  let send ?by () =
    Vobs.Metrics.incr ?by m ~host:"h1" ~server:"kernel" ~op:"send"
  in
  let flat () =
    Vobs.Metrics.counter_value m ~host:"h1" ~server:"kernel" ~op:"send"
  in
  send ();
  Alcotest.(check int) "flat mode counts flat" 1 (flat ());
  let r = R.create ~group_of:(fun _ -> Some "edge0") () in
  Vobs.Metrics.set_rollup m (Some r);
  send ~by:2 ();
  let fleet_total () =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (R.counters r Fleet)
  in
  Alcotest.(check int) "rollup-mode adds land in the rollup" 2 (fleet_total ());
  Alcotest.(check int) "flat cell keeps only the flat-mode count" 1 (flat ());
  Vobs.Metrics.set_rollup m None;
  send ~by:4 ();
  Alcotest.(check int) "back in flat mode, adds land flat again" 5 (flat ());
  Alcotest.(check int) "the detached rollup keeps its count" 2 (fleet_total ())

(* --- the shared flight-recorder formatter --- *)

(* A [%a] printer is the expensive part of a label: with the recorder
   off it must never run, and with it on it runs exactly once. *)
let test_eventf_runs_printer_only_when_recording () =
  let hub = Vobs.Hub.create () in
  let runs = ref 0 in
  let pp ppf n =
    incr runs;
    Fmt.int ppf n
  in
  let emit hub =
    Vobs.Hub.eventf hub ~at:1.0 ~cat:Vobs.Eventlog.Kernel ~host:"h" ~trace:0
      "n=%a" pp 7
  in
  emit None;
  emit (Some hub);
  Alcotest.(check int) "recorder off: printer never runs" 0 !runs;
  Alcotest.(check bool) "recorder off: not recording" false
    (Vobs.Hub.recording (Some hub));
  Vobs.Eventlog.set_enabled (Vobs.Hub.events hub) true;
  Alcotest.(check bool) "recorder on: recording" true
    (Vobs.Hub.recording (Some hub));
  emit (Some hub);
  Alcotest.(check int) "recorder on: printer runs once" 1 !runs;
  match Vobs.Eventlog.events (Vobs.Hub.events hub) with
  | [ e ] -> Alcotest.(check string) "label" "n=7" e.Vobs.Eventlog.label
  | es -> Alcotest.failf "%d events recorded, expected 1" (List.length es)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "telemetry",
      [
      Alcotest.test_case "sampling rate and exhaustive keep" `Quick
        test_sampling_rate;
      Alcotest.test_case "rollup cap + drop accounting" `Quick
        test_rollup_cap_and_drop_accounting;
      Alcotest.test_case "histogram overflow bucket" `Quick
        test_histogram_overflow;
      Alcotest.test_case "exemplar reservoirs" `Quick
        test_exemplars_deterministic_and_bucketed;
      Alcotest.test_case "timeseries downsampling" `Quick
        test_timeseries_downsample;
      Alcotest.test_case "timeseries series cap" `Quick
        test_timeseries_series_cap;
      Alcotest.test_case "eventlog drop hook" `Quick test_eventlog_drop_hook;
      Alcotest.test_case "flush_metrics deferred + idempotent" `Quick
        test_flush_metrics_deferred_and_idempotent;
      Alcotest.test_case "keyed incr across set_rollup" `Quick
        test_keyed_incr_across_set_rollup;
      Alcotest.test_case "eventf formats only when recording" `Quick
        test_eventf_runs_printer_only_when_recording;
        qcheck prop_sampling_deterministic;
      ] );
  ]
