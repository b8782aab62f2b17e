(* The benchmark's own tests: every workload at tiny size passes its
   checks, repeats exactly for one seed, and changes its inputs with
   the seed; and every correctness check fails when its expectation is
   tampered with. *)

open Vperfbench

let workloads = [ "ipc-soak"; "name-lookup"; "name-churn" ]

let workload name =
  match Rep.find name with
  | Some w -> w
  | None -> Alcotest.failf "no workload %s" name

let run ?tamper ?(traced = false) name =
  Rep.run (workload name) ?tamper ~traced Common.Tiny ~seed:7

let passes name () =
  let o = (run name).Rep.outcome in
  Alcotest.(check (list string)) "no failure notes" [] o.Common.notes;
  Alcotest.(check int) "no failures" 0 o.Common.failed;
  Alcotest.(check bool) "ops attempted" true (o.Common.attempted > 0);
  Alcotest.(check int)
    "one latency per op" o.Common.attempted
    (Array.length o.Common.latencies)

let repeats name () =
  let a = run name and b = run name in
  Alcotest.(check string) "same inputs" a.Rep.digest b.Rep.digest;
  Alcotest.(check int) "same events" a.Rep.events b.Rep.events;
  Alcotest.(check (float 0.0))
    "same minor words" a.Rep.minor_words b.Rep.minor_words;
  Alcotest.(check (array (float 0.0)))
    "same simulated latencies" a.Rep.outcome.Common.latencies
    b.Rep.outcome.Common.latencies;
  let other = Rep.digest (workload name) Common.Tiny ~seed:8 in
  Alcotest.(check bool)
    "another seed, other inputs" false
    (String.equal other a.Rep.digest)

let traced name () =
  let plain = run name and r = run ~traced:true name in
  Alcotest.(check int) "tracing adds no events" plain.Rep.events r.Rep.events;
  let o = r.Rep.outcome in
  Alcotest.(check int) "no failures" 0 o.Common.failed;
  Alcotest.(check (list string))
    "every counter reported" Counters.names
    (List.map fst (Counters.complete o.Common.counters));
  match r.Rep.spans with
  | None -> Alcotest.fail "traced run kept no spans"
  | Some sp ->
      Alcotest.(check int)
        "one span per op" o.Common.attempted sp.Common.Spans.n;
      let shares =
        List.filter
          (fun (k, _) -> String.ends_with ~suffix:"_share" k)
          (Rep.route_summary sp)
      in
      Alcotest.(check (float 1e-9))
        "route shares sum to 1" 1.0
        (List.fold_left (fun acc (_, v) -> acc +. v) 0.0 shares)

let caught name tamper () =
  let o = (run ~tamper name).Rep.outcome in
  Alcotest.(check bool) "the check fails" true (o.Common.failed > 0)

let per_workload name =
  [
    Alcotest.test_case (name ^ " passes its checks") `Quick (passes name);
    Alcotest.test_case (name ^ " repeats for one seed") `Quick (repeats name);
    Alcotest.test_case (name ^ " traced run") `Quick (traced name);
  ]

let () =
  Alcotest.run "perfbench"
    [
      ("workloads", List.concat_map per_workload workloads);
      ( "checks",
        [
          Alcotest.test_case "ipc-soak: tampered echo" `Quick
            (caught "ipc-soak" Common.Wrong_echo);
          Alcotest.test_case "name-lookup: tampered Open size" `Quick
            (caught "name-lookup" Common.Wrong_size);
          Alcotest.test_case "name-lookup: tampered Query name" `Quick
            (caught "name-lookup" Common.Wrong_name);
          Alcotest.test_case "name-lookup: orphan instance" `Quick
            (caught "name-lookup" Common.Leak_instance);
          Alcotest.test_case "name-churn: tampered model" `Quick
            (caught "name-churn" Common.Wrong_model);
          Alcotest.test_case "name-churn: diverged member" `Quick
            (caught "name-churn" Common.Diverge_member);
        ] );
    ]
