(* The benchmark program. Each invocation does one thing in a fresh
   process and prints one JSON object:

     main.exe rep --workload W --seed N [--traced]
       one repetition of a workload: set-up, engine run, checks
     main.exe digest --workload W --seed N
       the digest of the inputs the seed generates
     main.exe probes
       the per-layer probes

   perfbench/run.py drives it: it repeats reps, takes medians and
   checks determinism across them. *)

open Vperfbench
module Json = Vobs.Json

let usage () =
  prerr_endline
    "usage: main.exe (rep|digest) --workload W --seed N [--traced]\n\
    \       main.exe probes";
  exit 2

let print json = print_endline (Json.to_string json)

let rec options acc = function
  | "--traced" :: rest -> options (("traced", "") :: acc) rest
  | key :: v :: rest when String.starts_with ~prefix:"--" key ->
      options ((String.sub key 2 (String.length key - 2), v) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "probes" ] ->
      let metrics = Probes.metrics (Probes.all ()) in
      print (Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics))
  | (("rep" | "digest") as cmd) :: rest -> (
      let opts = options [] rest in
      let get k = List.assoc_opt k opts in
      let workload = Option.bind (get "workload") Rep.find in
      let seed = Option.bind (get "seed") int_of_string_opt in
      match (workload, seed) with
      | Some w, Some seed ->
          if cmd = "digest" then
            print
              (Json.Obj
                 [ ("digest", Json.String (Rep.digest w Common.Full ~seed)) ])
          else
            let traced = get "traced" <> None in
            print (Rep.to_json (Rep.run w ~traced Common.Full ~seed))
      | _ -> usage ())
  | _ -> usage ()
