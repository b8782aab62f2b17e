(* Per-layer counters of the traced run, read from the layers' public
   stats after the engine-run phase and normalised per transaction.
   Every workload reports the same names; a layer a workload does not
   touch reads 0. *)

open Common
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module File_server = Vservices.File_server
module Resolver = Vdomains.Resolver
module Csnh = Vnaming.Csnh
module Name_cache = Vnaming.Name_cache

let names =
  [
    "engine.timers_cancelled_per_txn";
    "net.frames_per_txn";
    "net.bytes_per_txn";
    "net.link_queue_peak";
    "net.link_busy_max_pct";
    "kernel.ipc_txn_per_txn";
    "kernel.forwards_per_txn";
    "kernel.group_sends_per_txn";
    "naming.prefix_requests_per_txn";
    "naming.prefix_forwards_per_txn";
    "naming.cache_hit_ratio";
    "naming.cache_evictions_per_ktxn";
    "resolver.cache_answer_ratio";
    "resolver.queries_per_walk";
    "fs.requests_per_txn";
    "fs.block_cache_hit_ratio";
    "replica.write_amplification";
  ]

(* Every counter name, in the canonical order, 0 where [found] lacks it. *)
let complete found =
  List.map
    (fun name -> (name, Option.value ~default:0.0 (List.assoc_opt name found)))
    names

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let counter c = Vsim.Stats.Counter.value c

(* The counters of a workload on the standard installation: fabric and
   kernel, prefix servers, client name caches, resolvers, file servers. *)
let naming (t : Scenario.t) ~txns ~envs ~resolvers =
  let prefix_stats =
    Array.to_list
      (Array.map
         (fun ws -> Vnaming.Prefix_server.stats ws.Scenario.ws_prefix)
         t.Scenario.workstations)
  in
  let caches = List.map Runtime.name_cache_stats envs in
  let resolver_stats = List.map Resolver.stats resolvers in
  let servers = Array.to_list t.Scenario.file_servers in
  let fss = List.map File_server.fs servers in
  let hits = sum (fun (c : Name_cache.stats) -> c.Name_cache.hits) caches in
  let misses = sum (fun (c : Name_cache.stats) -> c.Name_cache.misses) caches in
  let evictions =
    sum (fun (c : Name_cache.stats) -> c.Name_cache.evictions) caches
  in
  let walks =
    sum (fun (r : Resolver.stats) -> r.Resolver.walks) resolver_stats
  in
  let answers =
    sum (fun (r : Resolver.stats) -> r.Resolver.cache_answers) resolver_stats
  in
  let queries =
    sum (fun (r : Resolver.stats) -> r.Resolver.queries) resolver_stats
  in
  let fs_requests =
    sum (fun fs -> counter (File_server.stats fs).Csnh.requests) servers
  in
  let block_hits = sum Vservices.Fs.cache_hit_count fss in
  let block_misses = sum Vservices.Fs.cache_miss_count fss in
  fabric_counters ~txns
    ~ipc_txns:(Vkernel.Kernel.ipc_transaction_count t.Scenario.domain)
    t.Scenario.engine t.Scenario.net t.Scenario.obs
  @ [
      ( "naming.prefix_requests_per_txn",
        ratio (sum (fun s -> counter s.Csnh.requests) prefix_stats) txns );
      ( "naming.prefix_forwards_per_txn",
        ratio (sum (fun s -> counter s.Csnh.forwards) prefix_stats) txns );
      ("naming.cache_hit_ratio", ratio hits (hits + misses));
      ("naming.cache_evictions_per_ktxn", 1000.0 *. ratio evictions txns);
      ("resolver.cache_answer_ratio", ratio answers walks);
      ("resolver.queries_per_walk", ratio queries (walks - answers));
      ("fs.requests_per_txn", ratio fs_requests txns);
      ( "fs.block_cache_hit_ratio",
        ratio block_hits (block_hits + block_misses) );
    ]
