(* Tests for the vobs observability subsystem: the JSON encoder, span
   trees across forwarding chains, histogram quantiles against the
   exact Series quantiles, and the invariant that tracing never
   perturbs simulated time. *)

module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
open Vnaming

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %a" what Vio.Verr.pp e

(* --- JSON encoder --- *)

let test_json_encoder () =
  let open Vobs.Json in
  Alcotest.(check string)
    "scalars" {|{"a":1,"b":true,"c":null,"s":"x"}|}
    (to_string
       (Obj [ ("a", Int 1); ("b", Bool true); ("c", Null); ("s", String "x") ]));
  Alcotest.(check string)
    "escaping" {|"q\" b\\ n\n t\t u\u0001"|}
    (to_string (String "q\" b\\ n\n t\t u\001"));
  Alcotest.(check string) "integral float" "2.0" (to_string (Float 2.0));
  Alcotest.(check string) "nan is null" "null" (to_string (Float Float.nan));
  Alcotest.(check string)
    "infinity is null" "null"
    (to_string (Float Float.infinity));
  Alcotest.(check string) "list" "[1,2.5,\"x\"]"
    (to_string (List [ Int 1; Float 2.5; String "x" ]));
  let obj = Obj [ ("k", Int 7) ] in
  Alcotest.(check bool) "member hit" true (member "k" obj = Some (Int 7));
  Alcotest.(check bool) "member miss" true (member "z" obj = None)

(* --- JSON parser: the inverse of the encoder --- *)

let test_json_parser () =
  let open Vobs.Json in
  let roundtrip j =
    match parse (to_string j) with
    | Ok j' ->
        Alcotest.(check string)
          (Fmt.str "roundtrip %s" (to_string j))
          (to_string j) (to_string j')
    | Error msg -> Alcotest.failf "parse %s: %s" (to_string j) msg
  in
  List.iter roundtrip
    [
      Null;
      Bool false;
      Int (-42);
      Float 2.0;
      Float 3.14159;
      String "q\" b\\ n\n t\t u\001";
      List [ Int 1; Float 2.5; String "x"; List []; Obj [] ];
      Obj [ ("a", Int 1); ("nested", Obj [ ("l", List [ Bool true ]) ]) ];
    ];
  (match parse "  { \"a\" : [ 1 , 2.5e1 ] } " with
  | Ok (Obj [ ("a", List [ Int 1; Float 25.0 ]) ]) -> ()
  | Ok j -> Alcotest.failf "whitespace/exponent parse: got %s" (to_string j)
  | Error msg -> Alcotest.failf "whitespace/exponent parse: %s" msg);
  List.iter
    (fun bad ->
      match parse bad with
      | Ok j -> Alcotest.failf "accepted %S as %s" bad (to_string j)
      | Error (_ : string) -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "1 2"; "tru" ]

(* --- span tree across a forwarded open --- *)

(* Chain fs0:/hop -> fs1:/hop -> fs2:/target.dat, then open
   "[fs0]hop/hop/target.dat": the trace must contain the client root,
   the prefix-server hop, and one span per file server, parent links
   following the forwarding chain and index ranges abutting. *)
let test_span_tree_forwarded_open () =
  let t = Scenario.build ~workstations:1 ~file_servers:3 ~tracing:true () in
  let trace_id = ref 0 in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun self env ->
         for i = 0 to 1 do
           let next =
             File_server.spec (Scenario.file_server t (i + 1))
               ~context:Context.Well_known.default
           in
           ok_exn "link" (Runtime.link env (Fmt.str "[fs%d]hop" i) ~target:next)
         done;
         ok_exn "write"
           (Runtime.write_file env "[fs2]target.dat" (Bytes.of_string "t"));
         let inst =
           ok_exn "open" (Runtime.open_ env ~mode:Vmsg.Read "[fs0]hop/hop/target.dat")
         in
         (match Vobs.Hub.last_trace t.Scenario.obs with
         | Some id -> trace_id := id
         | None -> Alcotest.fail "no trace started");
         ok_exn "release" (Vio.Client.release self inst)));
  Scenario.run t;
  let spans = Vobs.Hub.trace_spans t.Scenario.obs !trace_id in
  List.iter
    (fun s ->
      Alcotest.(check bool) "wait >= 0" true (s.Vobs.Span.queue_wait >= 0.0);
      Alcotest.(check bool) "service >= 0" true (Vobs.Span.service_ms s >= 0.0))
    spans;
  match spans with
  | [ root; prefix; fs0; fs1; fs2 ] ->
      let open Vobs.Span in
      Alcotest.(check string) "root op" "client:Open" root.op;
      Alcotest.(check int) "root is root" 0 root.parent_id;
      Alcotest.(check string) "prefix host" "ws0" prefix.host;
      Alcotest.(check int) "prefix parent" root.span_id prefix.parent_id;
      Alcotest.(check string) "prefix outcome" "forward" prefix.outcome;
      List.iter2
        (fun (host, parent) span ->
          Alcotest.(check string) "hop host" host span.host;
          Alcotest.(check int) "hop parent" parent.span_id span.parent_id)
        [ ("fs0", prefix); ("fs1", fs0); ("fs2", fs1) ]
        [ fs0; fs1; fs2 ];
      Alcotest.(check string) "fs0 forwards" "forward" fs0.outcome;
      Alcotest.(check string) "fs1 forwards" "forward" fs1.outcome;
      Alcotest.(check string) "fs2 answers" (Reply.to_string Reply.Ok) fs2.outcome;
      (* "[fs0]hop/hop/target.dat": indexes 0 )[=5 hop/=9 hop/=13. Each
         hop resumes where the previous one stopped. *)
      Alcotest.(check (list (pair int int)))
        "index ranges"
        [ (0, 5); (5, 9); (9, 13); (13, 13) ]
        (List.map
           (fun s -> (s.index_from, s.index_to))
           [ prefix; fs0; fs1; fs2 ])
  | spans ->
      Alcotest.failf "expected 5 spans (root, prefix, 3 servers), got %d:@.%a"
        (List.length spans) Vobs.Export.pp_timeline spans

(* The timeline renderer shows one line per span, children indented. *)
let test_timeline_render () =
  let t = Scenario.build ~workstations:1 ~file_servers:2 ~tracing:true () in
  let trace_id = ref 0 in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         ok_exn "write" (Runtime.write_file env "[fs1]a.txt" (Bytes.of_string "x"));
         (match Vobs.Hub.last_trace t.Scenario.obs with
         | Some id -> trace_id := id
         | None -> Alcotest.fail "no trace")));
  Scenario.run t;
  let spans = Vobs.Hub.trace_spans t.Scenario.obs !trace_id in
  let out = Fmt.str "%a" Vobs.Export.pp_timeline spans in
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one line per span" (List.length spans) (List.length lines);
  Alcotest.(check bool) "root unindented" true
    (String.length (List.hd lines) > 0 && (List.hd lines).[0] <> ' ')

(* --- histogram quantiles vs exact Series quantiles --- *)

let test_histogram_vs_series () =
  let h = Vobs.Metrics.Histogram.create () in
  let series = Vsim.Stats.Series.create "samples" in
  let prng = Vsim.Prng.create ~seed:7 in
  let samples =
    List.init 500 (fun _ -> Vsim.Prng.float prng *. 120.0)
  in
  List.iter
    (fun x ->
      Vobs.Metrics.Histogram.observe h x;
      Vsim.Stats.Series.add series x)
    samples;
  Alcotest.(check int)
    "count" (Vsim.Stats.Series.count series)
    (Vobs.Metrics.Histogram.count h);
  let smin = List.fold_left min infinity samples in
  let smax = List.fold_left max neg_infinity samples in
  Alcotest.(check (float 1e-9)) "min" smin (Vobs.Metrics.Histogram.min_ h);
  Alcotest.(check (float 1e-9)) "max" smax (Vobs.Metrics.Histogram.max_ h);
  let bounds = Vobs.Metrics.Histogram.default_bounds in
  (* The histogram estimate must land inside the bucket that holds the
     exact quantile — that is the resolution the bucketing promises. *)
  List.iter
    (fun q ->
      let exact = Vsim.Stats.Series.quantile series q in
      let estimate = Vobs.Metrics.Histogram.quantile h q in
      let b =
        let rec find i =
          if i >= Array.length bounds then i
          else if exact <= bounds.(i) then i
          else find (i + 1)
        in
        find 0
      in
      let lower = if b = 0 then smin else max smin bounds.(b - 1) in
      let upper = if b >= Array.length bounds then smax else min smax bounds.(b) in
      if estimate < lower -. 1e-9 || estimate > upper +. 1e-9 then
        Alcotest.failf "q=%.2f: estimate %.4f outside bucket [%.4f, %.4f] of exact %.4f"
          q estimate lower upper exact)
    [ 0.1; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ];
  (* Quantiles are monotone in q. *)
  let qs = [ 0.0; 0.25; 0.5; 0.75; 0.95; 1.0 ] in
  let vs = List.map (Vobs.Metrics.Histogram.quantile h) qs in
  ignore
    (List.fold_left
       (fun prev v ->
         Alcotest.(check bool) "monotone" true (v >= prev -. 1e-9);
         v)
       neg_infinity vs)

(* --- metrics registry --- *)

let test_metrics_registry () =
  let m = Vobs.Metrics.create () in
  Vobs.Metrics.incr m ~host:"h" ~server:"s" ~op:"x";
  Vobs.Metrics.incr m ~by:4 ~host:"h" ~server:"s" ~op:"x";
  Alcotest.(check int) "counter" 5
    (Vobs.Metrics.counter_value m ~host:"h" ~server:"s" ~op:"x");
  Alcotest.(check int) "absent counter" 0
    (Vobs.Metrics.counter_value m ~host:"h" ~server:"s" ~op:"y");
  Vobs.Metrics.observe m ~host:"h" ~server:"s" ~op:"lat" 1.5;
  Vobs.Metrics.observe m ~host:"h" ~server:"s" ~op:"lat" 2.5;
  (match Vobs.Metrics.histogram m ~host:"h" ~server:"s" ~op:"lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "hist count" 2 (Vobs.Metrics.Histogram.count h);
      Alcotest.(check (float 1e-9)) "hist sum" 4.0 (Vobs.Metrics.Histogram.sum h));
  match Vobs.Json.member "counters" (Vobs.Metrics.to_json m) with
  | Some (Vobs.Json.List [ _ ]) -> ()
  | _ -> Alcotest.fail "counters JSON shape"

(* --- tracing off leaves simulated time bit-identical --- *)

(* The same workload under tracing on/off must produce the exact same
   simulated latencies and final clock: observability is bookkeeping
   outside the simulation. *)
let run_timed_workload ~tracing =
  let t = Scenario.build ~workstations:2 ~file_servers:2 ~tracing () in
  let latencies = ref [] in
  ignore
    (Scenario.spawn_client t ~ws:0 (fun _self env ->
         let eng = Runtime.engine env in
         let timed what f =
           let t0 = Vsim.Engine.now eng in
           ok_exn what (f ());
           latencies := (Vsim.Engine.now eng -. t0) :: !latencies
         in
         timed "write" (fun () ->
             Runtime.write_file env "[home]d.txt" (Bytes.of_string "determinism"));
         timed "read" (fun () -> Runtime.read_file env "[home]d.txt" |> Result.map ignore);
         timed "write fs1" (fun () ->
             Runtime.write_file env "[fs1]other.txt" (Bytes.of_string "x"));
         timed "read fs1" (fun () ->
             Runtime.read_file env "[fs1]other.txt" |> Result.map ignore);
         timed "ls" (fun () ->
             Runtime.list_directory env "[home]" |> Result.map ignore)));
  Scenario.run t;
  (List.rev !latencies, Vsim.Engine.now t.Scenario.engine)

let test_tracing_off_determinism () =
  let lat_off, end_off = run_timed_workload ~tracing:false in
  let lat_on, end_on = run_timed_workload ~tracing:true in
  Alcotest.(check int) "same op count" (List.length lat_off) (List.length lat_on);
  List.iteri
    (fun i (off, on) ->
      if not (Float.equal off on) then
        Alcotest.failf "op %d: %.17g ms untraced vs %.17g ms traced" i off on)
    (List.combine lat_off lat_on);
  if not (Float.equal end_off end_on) then
    Alcotest.failf "final clock: %.17g vs %.17g" end_off end_on

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "json encoder" `Quick test_json_encoder;
        Alcotest.test_case "json parser roundtrip" `Quick test_json_parser;
        Alcotest.test_case "span tree across 3 forwards" `Quick
          test_span_tree_forwarded_open;
        Alcotest.test_case "timeline render" `Quick test_timeline_render;
        Alcotest.test_case "histogram vs series quantiles" `Quick
          test_histogram_vs_series;
        Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
        Alcotest.test_case "tracing off is deterministic" `Quick
          test_tracing_off_determinism;
      ] );
  ]
