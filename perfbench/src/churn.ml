(* name-churn: writes beside reads on a replicated directory. The
   standard installation gains a 3-member replica set behind '[rstore]'
   (E10's configuration); every client creates, removes and renames
   names in its own directory and reads them back with Query and
   list_directory, uncached. Every op pays for a CSNH parse and walk, a
   prefix-server Forward, and — for writes — the group fan-out. *)

open Common
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Fs = Vservices.Fs
module Replica = Vservices.Replica
module Kernel = Vkernel.Kernel
module Prng = Vsim.Prng
module SS = Set.Make (String)
open Vnaming

type shape = {
  workstations : int;
  file_servers : int;
  ops_per_client : int;
  initial_files : int;
  min_files : int;  (** at or below this a write is always a create *)
  max_files : int;  (** at or above this a write is always a remove *)
}

let shape = function
  | Full ->
      {
        workstations = 64;
        file_servers = 4;
        ops_per_client = 1_000;
        initial_files = 16;
        min_files = 12;
        max_files = 20;
      }
  | Tiny ->
      {
        workstations = 4;
        file_servers = 3;
        ops_per_client = 40;
        initial_files = 4;
        min_files = 1;
        max_files = 8;
      }

type op =
  | Create of string
  | Remove of string
  | Rename of string * string
  | Query of string
  | List of string list  (** the directory's expected names, sorted *)

type inputs = {
  shape : shape;
  initial : string array array;
      (** per client: the names its directory starts with *)
  ops : op array array;  (** per client; the last op is always a List *)
}

let installation_seed = 4242

(* Each client's op stream is generated against a model of its own
   directory, so every op is valid when issued and every read knows its
   answer. Names carry a per-client counter, so they never collide. *)
let generate size ~seed =
  let s = shape size in
  let prng = Prng.create ~seed in
  let client () =
    let p = Prng.split prng in
    let counter = ref 0 in
    let fresh () =
      incr counter;
      Fmt.str "%s%d" (Vworkload.Generator.word p) !counter
    in
    let initial = Array.init s.initial_files (fun _ -> fresh ()) in
    let model = ref (SS.of_list (Array.to_list initial)) in
    let pick () =
      let xs = SS.elements !model in
      List.nth xs (Prng.int p (List.length xs))
    in
    let write () =
      let n = SS.cardinal !model in
      let roll = Prng.int p 100 in
      if n <= s.min_files || (n < s.max_files && roll < 40) then begin
        let name = fresh () in
        model := SS.add name !model;
        Create name
      end
      else if n >= s.max_files || roll < 70 then begin
        let name = pick () in
        model := SS.remove name !model;
        Remove name
      end
      else begin
        let old = pick () in
        let name = fresh () in
        model := SS.add name (SS.remove old !model);
        Rename (old, name)
      end
    in
    let read () =
      if SS.is_empty !model || Prng.int p 100 < 25 then
        List (SS.elements !model)
      else Query (pick ())
    in
    let ops =
      Array.init s.ops_per_client (fun i ->
          if i = s.ops_per_client - 1 then List (SS.elements !model)
          else if Prng.bool p then write ()
          else read ())
    in
    (initial, ops)
  in
  let clients = Array.init s.workstations (fun _ -> client ()) in
  { shape = s; initial = Array.map fst clients; ops = Array.map snd clients }

let digest i =
  Digest.to_hex (Digest.string (Marshal.to_string (i.initial, i.ops) []))

let attempted i = Array.fold_left (fun acc a -> acc + Array.length a) 0 i.ops
let dir_of k = Fmt.str "shared/u%d" k

(* Every name a client ever wrote or started with, relative to a
   member's root — what the divergence check probes. *)
let written_names inputs =
  let acc = ref SS.empty in
  Array.iteri
    (fun k ops ->
      let add name = acc := SS.add (dir_of k ^ "/" ^ name) !acc in
      acc := SS.add (dir_of k) !acc;
      Array.iter add inputs.initial.(k);
      Array.iter
        (function
          | Create n | Remove n -> add n
          | Rename (a, b) ->
              add a;
              add b
          | Query _ | List _ -> ())
        ops)
    inputs.ops;
  SS.elements !acc

let fail_code what = function
  | Ok v -> v
  | Error code -> failwith (Fmt.str "name-churn %s: %a" what Reply.pp code)

(* Identical initial state on every member, created in the same order
   so inode-derived context ids line up across members. *)
let seed_member inputs fs =
  let fs = File_server.fs fs in
  let mkdir dir name =
    fail_code "mkdir" (Fs.mkdir fs ~dir ~owner:"bench" name)
  in
  let shared = mkdir Fs.root_ino "shared" in
  Array.iteri
    (fun k names ->
      let dir = mkdir shared (Fmt.str "u%d" k) in
      Array.iter
        (fun name ->
          ignore
            (fail_code "create" (Fs.create_file fs ~dir ~owner:"bench" name)))
        names)
    inputs.initial

(* E10's replication factor. *)
let replicas = 3

(* The standard installation with a replica set of the first
   [replicas] file servers bound to '[rstore]' on every workstation. *)
let install (s : shape) ~prepare_member =
  let t =
    Scenario.build ~config:Vnet.Calibration.ethernet_10mbit
      ~workstations:s.workstations ~file_servers:s.file_servers
      ~seed:installation_seed ()
  in
  let domain = t.Scenario.domain in
  let members =
    List.init replicas (fun i ->
        match Kernel.host_of_addr domain (Scenario.fs_addr i) with
        | Some host -> (host, t.Scenario.file_servers.(i))
        | None -> failwith "name-churn: file server host missing")
  in
  let rset = Replica.install domain ~members () in
  Array.iter
    (fun ws ->
      fail_code "rstore binding"
        (Prefix_server.add_binding ws.Scenario.ws_prefix "rstore"
           (Replica.target rset)))
    t.Scenario.workstations;
  List.iter (fun (_, fs) -> prepare_member fs) members;
  (t, List.map snd members)

(* Client [k]'s directory on one member's filesystem, read directly. *)
let member_dir fs k =
  let fs = File_server.fs fs in
  match Fs.resolve_path fs ("/" ^ dir_of k) with
  | Some (Fs.Dir_entry dir) -> Some (fs, dir)
  | _ -> None

(* IPC transactions per replicated write on an otherwise idle set —
   E10's write-amplification measure; read-one/write-all predicts
   replicas + 1. *)
let amp_writes = 20
let amp_name i = Fmt.str "%s/amp%d" (dir_of 0) i

let write_amplification (t : Scenario.t) =
  let before = ref 0 and after = ref 0 in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"amp" (fun _self env ->
         before := Kernel.ipc_transaction_count t.Scenario.domain;
         for i = 0 to amp_writes - 1 do
           ignore (Runtime.create env ("[rstore]" ^ amp_name i))
         done;
         after := Kernel.ipc_transaction_count t.Scenario.domain));
  Scenario.run t;
  ratio (!after - !before) amp_writes

(* One op of client [k]: every write succeeds, every Query names its
   object, every listing equals the client's model. *)
let run_op failures env ~target = function
  | Create _ -> Runtime.create env target |> Failures.check failures target
  | Remove _ -> Runtime.remove env target |> Failures.check failures target
  | Rename (_, b) ->
      Runtime.rename env target ~new_name:b |> Failures.check failures target
  | Query n -> (
      match Runtime.query env target with
      | Ok d ->
          if not (String.equal d.Descriptor.name n) then
            Failures.addf failures "query %s: described %S" target
              d.Descriptor.name
      | Error e -> Failures.addf failures "query %s: %a" target Vio.Verr.pp e)
  | List expected -> (
      match Runtime.list_directory env target with
      | Ok ds ->
          let got =
            List.sort String.compare
              (List.map (fun d -> d.Descriptor.name) ds)
          in
          if got <> expected then
            Failures.addf failures "list %s: %d names, model has %d" target
              (List.length got) (List.length expected)
      | Error e -> Failures.addf failures "list %s: %a" target Vio.Verr.pp e)

let setup ?spans ?(tamper = Honest) inputs =
  let s = inputs.shape in
  let t, members = install s ~prepare_member:(seed_member inputs) in
  let total = attempted inputs in
  let latencies = Array.make total 0.0 in
  let failures = Failures.create () in
  let base = ref 0 in
  Array.iteri
    (fun k ops ->
      let first = !base in
      base := !base + Array.length ops;
      let dir = "[rstore]" ^ dir_of k in
      (* Each op's full name, built now so the run phase does no string
         work of the benchmark's own. *)
      let targets =
        Array.map
          (function
            | Create n | Remove n | Query n | Rename (n, _) -> dir ^ "/" ^ n
            | List _ -> dir)
          ops
      in
      let ops =
        match (tamper, ops) with
        | Wrong_model, ops when k = 0 ->
            let ops = Array.copy ops in
            let last = Array.length ops - 1 in
            (match ops.(last) with
            | List names -> ops.(last) <- List ("phantom" :: names)
            | _ -> ());
            ops
        | _ -> ops
      in
      ignore
        (Scenario.spawn_client t ~ws:k ~name:(Fmt.str "churn%d" k)
           (fun _self env ->
             let eng = Runtime.engine env in
             Array.iteri
               (fun i op ->
                 let id = first + i in
                 let t0 = Vsim.Engine.now eng in
                 run_op failures env ~target:targets.(i) op;
                 let t1 = Vsim.Engine.now eng in
                 latencies.(id) <- t1 -. t0;
                 match spans with
                 | Some sp ->
                     Spans.record sp ~id:(id + 1) ~route:Uncached ~start:t0
                       ~stop:t1
                 | None -> ())
               ops)))
    inputs.ops;
  let finish () =
    (* Counters first: the write-amplification probe below adds
       traffic of its own. *)
    let counters =
      match spans with
      | None -> []
      | Some _ ->
          let counters =
            Counters.naming t ~txns:total ~envs:[] ~resolvers:[]
          in
          let amplification = write_amplification t in
          counters @ [ ("replica.write_amplification", amplification) ]
    in
    (match (tamper, members) with
    | Diverge_member, _ :: m :: _ -> (
        match member_dir m 0 with
        | Some (fs, dir) ->
            List.iter
              (fun (name, _) -> ignore (Fs.unlink fs ~dir name))
              (Fs.entries fs ~dir)
        | None -> ())
    | _ -> ());
    let names =
      written_names inputs
      @ match spans with Some _ -> List.init amp_writes amp_name | None -> []
    in
    Failures.violations failures
      (Vfault.Invariant.replica_divergence t ~members ~names);
    {
      attempted = total;
      failed = failures.Failures.count;
      latencies;
      counters;
      notes = Failures.notes failures;
    }
  in
  { engine = t.Scenario.engine; run = (fun () -> Scenario.run t); finish }
