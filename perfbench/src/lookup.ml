(* name-lookup: read-only naming on the paper's installation (§6) —
   workstations with their context prefix servers, file servers, the
   shared 10 Mbit wire — loaded with a closed-loop Open+release / Query
   mix over a Zipf-popular name population. Three routes share the
   load: '[fsN]' names through the client name cache and the prefix
   server, current-context relative names straight to the home file
   server, and names under a depth-3 federated domain tree resolved by
   the caching resolver. *)

open Common
module Scenario = Vworkload.Scenario
module Generator = Vworkload.Generator
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Kernel = Vkernel.Kernel
module Domain_server = Vdomains.Domain_server
module Resolver = Vdomains.Resolver
module Prng = Vsim.Prng
open Vnaming

type shape = {
  workstations : int;
  file_servers : int;
  ops_per_client : int;
  directories : int;  (** per file server, as [Generator.populate] takes them *)
  files_per_directory : int;
  cache_capacity : int;
}

(* The op mix: 50% '[fsN]' names (through the name cache), 20% '[dom]'
   names (through the resolver), the rest relative to the current
   context; 40% of ops are Queries, the rest Open+release. Names are
   Zipf-popular within each file server. *)
let prefixed_pct = 50
let resolved_pct = 20
let query_pct = 40
let zipf = 0.9

let shape = function
  | Full ->
      {
        workstations = 64;
        file_servers = 4;
        ops_per_client = 1_000;
        directories = 40;
        files_per_directory = 10;
        cache_capacity = 64;
      }
  | Tiny ->
      {
        workstations = 4;
        file_servers = 2;
        ops_per_client = 60;
        directories = 6;
        files_per_directory = 4;
        cache_capacity = 8;
      }

type kind = Prefixed | Relative | Resolved

(* One client op as generated: how it is routed, which file server's
   population it draws from, the Zipf rank of the name there, and
   whether it is a Query (else an Open+release). *)
type op = { kind : kind; server : int; rank : int; query : bool }

type inputs = { shape : shape; population_seed : int; ops : op array array }

(* The installation itself is fixed; the seed varies only what the
   program is handed — the file population and the op streams. *)
let installation_seed = 4242
let domain_prefix = "dom"
let dom_addr i = 300 + i

let generate size ~seed =
  let s = shape size in
  let prng = Prng.create ~seed in
  let population_seed = Prng.bits prng in
  let ranks = s.directories * s.files_per_directory in
  let cum = Generator.zipf_cumulative ~s:zipf ranks in
  let ops =
    Array.init s.workstations (fun ws ->
        let p = Prng.split prng in
        let home = ws mod s.file_servers in
        Array.init s.ops_per_client (fun _ ->
            let roll = Prng.int p 100 in
            let kind =
              if roll < prefixed_pct then Prefixed
              else if roll < prefixed_pct + resolved_pct then Resolved
              else Relative
            in
            let server =
              match kind with Relative -> home | _ -> Prng.int p s.file_servers
            in
            let rank = Generator.zipf_pick p cum in
            { kind; server; rank; query = Prng.int p 100 < query_pct }))
  in
  { shape = s; population_seed; ops }

let digest i =
  Digest.to_hex
    (Digest.string (Marshal.to_string (i.population_seed, i.ops) []))

let attempted i = Array.fold_left (fun acc a -> acc + Array.length a) 0 i.ops

let basename path =
  match String.rindex_opt path '/' with
  | Some k -> String.sub path (k + 1) (String.length path - k - 1)
  | None -> path

(* [Generator.populate] writes "contents of <path>" into every file. *)
let expected_size path = String.length "contents of " + String.length path

let fail_code what = function
  | Ok v -> v
  | Error code -> failwith (Fmt.str "name-lookup %s: %a" what Reply.pp code)

(* The depth-3 federated tree: dom0 delegates "d1" to dom1, dom1
   delegates "d2" to dom2, and dom2 binds "fsK" to each file server's
   root — so "[dom]d1/d2/fsK/<path>" names file server K's <path>. *)
let build_tree (t : Scenario.t) =
  let servers =
    Array.init 3 (fun i ->
        let name = Fmt.str "dom%d" i in
        let host = Kernel.boot_host t.Scenario.domain ~name (dom_addr i) in
        Domain_server.start host ~name ())
  in
  for i = 0 to 1 do
    fail_code "delegate"
      (Domain_server.delegate servers.(i)
         (Fmt.str "d%d" (i + 1))
         (Domain_server.spec servers.(i + 1) ()))
  done;
  Array.iteri
    (fun k fs ->
      fail_code "bind"
        (Domain_server.bind servers.(2) (Fmt.str "fs%d" k)
           (File_server.spec fs ~context:Context.Well_known.default)))
    t.Scenario.file_servers;
  Domain_server.spec servers.(0) ()

let name_of kind ~server path =
  let rel = Generator.relative path in
  match kind with
  | Prefixed -> Fmt.str "[fs%d]%s" server rel
  | Relative -> rel
  | Resolved -> Fmt.str "[%s]d1/d2/fs%d/%s" domain_prefix server rel

(* One Query: it must describe the file asked for. *)
let query_op failures env name ~want =
  match Runtime.query env name with
  | Ok d ->
      if
        not
          (String.equal d.Descriptor.name want
          && d.Descriptor.obj_type = Descriptor.File)
      then
        Failures.addf failures "query %s: described %S (%s), want %S" name
          d.Descriptor.name
          (Descriptor.obj_type_to_string d.Descriptor.obj_type)
          want
  | Error e -> Failures.addf failures "query %s: %a" name Vio.Verr.pp e

(* One Open and its release: the instance must have the file's size. *)
let open_op failures self env name ~want ~release =
  match Runtime.open_ env ~mode:Vmsg.Read name with
  | Ok inst -> (
      if Vio.Client.size inst <> want then
        Failures.addf failures "open %s: size %d, want %d" name
          (Vio.Client.size inst) want;
      if release then
        match Vio.Client.release self inst with
        | Ok () -> ()
        | Error e -> Failures.addf failures "release %s: %a" name Vio.Verr.pp e)
  | Error e -> Failures.addf failures "open %s: %a" name Vio.Verr.pp e

let setup ?spans ?(tamper = Honest) inputs =
  let s = inputs.shape in
  let t =
    Scenario.build ~config:Vnet.Calibration.ethernet_10mbit
      ~workstations:s.workstations ~file_servers:s.file_servers
      ~seed:installation_seed ()
  in
  let pop = Prng.create ~seed:inputs.population_seed in
  let population =
    Array.map
      (fun fs ->
        Array.of_list
          (Generator.populate (Prng.split pop) fs ~directories:s.directories
             ~files_per_directory:s.files_per_directory))
      t.Scenario.file_servers
  in
  let root = build_tree t in
  (* Materialise every op's name and expectations now, so the run phase
     does no string work of the benchmark's own. *)
  let names =
    Array.map
      (Array.map (fun op ->
           let paths = population.(op.server) in
           let path = paths.(op.rank mod Array.length paths) in
           (name_of op.kind ~server:op.server path, path)))
      inputs.ops
  in
  (* A tamper corrupts client 0's first op of the kind it concerns. *)
  let first_where pred =
    let ops = inputs.ops.(0) in
    let rec go k =
      if k >= Array.length ops then -1
      else if pred ops.(k) then k
      else go (k + 1)
    in
    go 0
  in
  let first_query = first_where (fun op -> op.query)
  and first_open = first_where (fun op -> not op.query) in
  let total = attempted inputs in
  let latencies = Array.make total 0.0 in
  let failures = Failures.create () in
  let envs = ref [] and resolvers = ref [] in
  let base = ref 0 in
  Array.iteri
    (fun ws ops ->
      let first = !base in
      base := !base + Array.length ops;
      let home =
        File_server.spec
          t.Scenario.file_servers.(ws mod s.file_servers)
          ~context:Context.Well_known.default
      in
      ignore
        (Scenario.spawn_client t ~ws ~name:(Fmt.str "lookup%d" ws)
           ~current:home (fun self env ->
             Runtime.enable_name_cache env ~capacity:s.cache_capacity true;
             let r = Resolver.create ~prefix:domain_prefix ~root () in
             Runtime.set_resolver env r;
             envs := env :: !envs;
             resolvers := r :: !resolvers;
             let eng = Runtime.engine env in
             let cache = Runtime.name_cache env in
             let cache_hits () = (Name_cache.stats cache).Name_cache.hits in
             Array.iteri
               (fun k op ->
                 let id = first + k in
                 let name, path = names.(ws).(k) in
                 let hits0 =
                   match spans with None -> 0 | Some _ -> cache_hits ()
                 in
                 let t0 = Vsim.Engine.now eng in
                 (if op.query then
                    let want =
                      if tamper = Wrong_name && id = first_query then "?"
                      else basename path
                    in
                    query_op failures env name ~want
                  else
                    let want =
                      expected_size path
                      + if tamper = Wrong_size && id = first_open then 1 else 0
                    in
                    let release =
                      not (tamper = Leak_instance && id = first_open)
                    in
                    open_op failures self env name ~want ~release);
                 let t1 = Vsim.Engine.now eng in
                 latencies.(id) <- t1 -. t0;
                 match spans with
                 | None -> ()
                 | Some sp ->
                     let route =
                       match op.kind with
                       | Relative -> Uncached
                       | Resolved -> Resolver
                       | Prefixed -> if cache_hits () > hits0 then Hit else Miss
                     in
                     Spans.record sp ~id:(id + 1) ~route ~start:t0 ~stop:t1)
               ops)))
    inputs.ops;
  let finish () =
    Failures.violations failures
      (Vfault.Invariant.no_orphan_instances
         (Array.to_list t.Scenario.file_servers));
    let counters =
      match spans with
      | None -> []
      | Some _ ->
          Counters.naming t ~txns:total ~envs:!envs ~resolvers:!resolvers
    in
    {
      attempted = total;
      failed = failures.Failures.count;
      latencies;
      counters;
      notes = Failures.notes failures;
    }
  in
  { engine = t.Scenario.engine; run = (fun () -> Scenario.run t); finish }
