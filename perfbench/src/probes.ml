(* Per-layer probes: each runs a fixed shape through one layer's public
   functions and reports host nanoseconds per op (median of timed
   batches, with the interquartile range), minor words per op and, where
   the layer drives the engine, engine events per op. Shapes never
   depend on the workload seed, so every traced run reports the same
   probes. *)

open Common
module En = Vsim.Engine
module E = Vnet.Ethernet
module T = Vnet.Topology
module C = Vnet.Calibration
module K = Vkernel.Kernel
module Scenario = Vworkload.Scenario
module Runtime = Vruntime.Runtime
module Resolver = Vdomains.Resolver
module File_server = Vservices.File_server
module Fs = Vservices.Fs
open Vnaming

type sample = {
  name : string;
  ns : float;  (** median host ns per op *)
  ns_iqr : float;
  words : float;  (** minor words per op *)
  events : float option;  (** engine events per op, engine-driven probes *)
  frames : float option;  (** frames per op, where a network is involved *)
}

let batches = 15

(* Time [batches] calls of [batch] (each doing [ops] operations) after
   one warm-up call. Words, events and frames come from the first timed
   batch; they repeat exactly. Runs equally well outside the engine or
   inside a fiber: a fiber's batch brackets the engine work it waits
   for. *)
let measure ~name ~ops ?events ?frames batch =
  batch ();
  let per_op x = x /. float_of_int ops in
  let count f = match f with Some f -> f () | None -> 0 in
  let times = Array.make batches 0.0 in
  let words = ref 0.0 and evs = ref 0 and frs = ref 0 in
  for b = 0 to batches - 1 do
    let ev0 = count events and fr0 = count frames in
    let w0 = Gc.minor_words () in
    let c0 = Sys.time () in
    batch ();
    let c1 = Sys.time () in
    let w1 = Gc.minor_words () in
    times.(b) <- per_op ((c1 -. c0) *. 1e9);
    if b = 0 then begin
      words := w1 -. w0;
      evs := count events - ev0;
      frs := count frames - fr0
    end
  done;
  let q = quantile times in
  {
    name;
    ns = q 0.5;
    ns_iqr = q 0.75 -. q 0.25;
    words = per_op !words;
    events = Option.map (fun _ -> per_op (float_of_int !evs)) events;
    frames = Option.map (fun _ -> per_op (float_of_int !frs)) frames;
  }

let noop () = ()

(* --- engine --- *)

(* [chains] self-rescheduling events, so the queue holds a steady,
   small population — as in a run, where each fired event schedules
   the next step of its fiber. *)
let schedule_fire ~name backend =
  let eng = En.create ~backend () in
  let ops = 65_536 and chains = 64 in
  let remaining = ref 0 in
  let ticks =
    Array.init chains (fun c ->
        let delay = 0.05 *. float_of_int (c + 1) in
        let rec tick () =
          if !remaining > 0 then begin
            decr remaining;
            En.schedule ~delay eng tick
          end
        in
        tick)
  in
  measure ~name ~ops ~events:(fun () -> En.executed eng) (fun () ->
      remaining := ops - chains;
      Array.iter (fun tick -> En.schedule eng tick) ticks;
      En.run eng)

(* The kernel's retransmission-timer pattern: armed 40 ms out,
   cancelled when the reply comes back. *)
let timer_arm_cancel () =
  let eng = En.create () in
  let ops = 262_144 in
  measure ~name:"engine.timer_arm_cancel" ~ops
    ~events:(fun () -> En.executed eng)
    (fun () ->
      for _ = 1 to ops do
        En.cancel eng (En.timer ~delay:40.0 eng noop)
      done;
      En.run eng)

(* --- network: frames bounced between two hosts --- *)

(* Each delivery sends the next frame back the other way, so exactly
   one frame is in flight: no queueing and no injection events, just
   transmit, hops and delivery. *)
let frames ~name ~topology ~config ~dst =
  let ops = 4096 in
  let eng = En.create () in
  let net = E.create ~config ~topology eng in
  let remaining = ref 0 in
  let frame src dst =
    { E.src; dst = E.Unicast dst; payload = (); payload_bytes = 64 }
  in
  let there = frame 0 dst and back = frame dst 0 in
  let bounce next _ =
    if !remaining > 0 then begin
      decr remaining;
      E.transmit net next
    end
  in
  E.attach net 0 (bounce there);
  E.attach net dst (bounce back);
  measure ~name ~ops
    ~events:(fun () -> En.executed eng)
    ~frames:(fun () -> (E.counters net).E.frames_sent)
    (fun () ->
      remaining := ops - 1;
      E.transmit net there;
      En.run eng)

(* --- kernel: the ipc-soak fabric, string messages --- *)

let fan_in = 64

(* Boot one host per address and run [client] as a process on the
   first; [client] gets the domain, the hosts and the event and frame
   counters, and returns its probe sample. *)
let on_kernel addrs client =
  let eng = En.create () in
  let net =
    E.create ~config:Soak.gigabit ~topology:(T.switched ~fan_in) eng
  in
  let domain = K.create_domain ~cost:Soak.raw_cost eng net in
  let hosts =
    Array.map (fun a -> K.boot_host domain ~name:(Fmt.str "h%d" a) a) addrs
  in
  let events () = En.executed eng
  and frames () = (E.counters net).E.frames_sent in
  let result = ref None in
  ignore
    (K.spawn hosts.(0) ~name:"probe" (fun self ->
         result := Some (client self domain hosts ~events ~frames)));
  En.run eng;
  match !result with
  | Some r -> r
  | None -> failwith "kernel probe did not finish"

let srr_ops = 1024
let request = "0123456789abcdef"

let srr ~name ~remote =
  on_kernel [| 1; 1 + fan_in |] (fun self _ hosts ~events ~frames ->
      let server = Soak.echo_server hosts.(if remote then 1 else 0) in
      measure ~name ~ops:srr_ops ~events ~frames (fun () ->
          for _ = 1 to srr_ops do
            ignore (K.send self server request)
          done))

(* A local forwarder (the prefix server's position) passing each
   request on to a remote echo server. *)
let forward () =
  on_kernel [| 1; 1 + fan_in |] (fun self _ hosts ~events ~frames ->
      let server = Soak.echo_server hosts.(1) in
      let forwarder =
        K.spawn hosts.(0) ~name:"forwarder" (fun me ->
            let rec loop () =
              let msg, sender = K.receive me in
              ignore (K.forward me ~from_:sender ~to_:server msg);
              loop ()
            in
            loop ())
      in
      measure ~name:"kernel.forward" ~ops:srr_ops ~events ~frames (fun () ->
          for _ = 1 to srr_ops do
            ignore (K.send self forwarder request)
          done))

(* A multicast Send to a 3-member group of echo servers on other
   edges; the first reply completes it. *)
let group_send () =
  on_kernel [| 1; 1 + fan_in; 1 + (2 * fan_in); 1 + (3 * fan_in) |]
    (fun self domain hosts ~events ~frames ->
      let group = K.create_group domain in
      for i = 1 to 3 do
        K.join_group hosts.(i) ~group (Soak.echo_server hosts.(i))
      done;
      measure ~name:"kernel.group_send" ~ops:srr_ops ~events ~frames
        (fun () ->
          for _ = 1 to srr_ops do
            ignore (K.send_group self ~group request)
          done))

(* --- naming: pure name-syntax and table operations --- *)

let pure ?(ops = 65_536) name f =
  measure ~name ~ops (fun () ->
      for i = 0 to ops - 1 do
        ignore (Sys.opaque_identity (f i))
      done)

let some_spec = Context.spec ~server:(Vkernel.Pid.of_int 0x10001) ~context:7

let parse_prefix () =
  let req = Csname.make_req "[homedir]papers/naming.mss" in
  pure ~ops:262_144 "naming.parse_prefix" (fun _ -> Csname.parse_prefix req)

let walk () =
  let lookup ctx component =
    match (ctx, component) with
    | 0, "a" -> Csnh.Descend 1
    | 1, "b" -> Csnh.Descend 2
    | _ -> Csnh.Stop
  in
  let req = Csname.make_req ~context:0 "a/b/file.txt" in
  pure "naming.walk" (fun _ ->
      Csnh.walk ~valid_context:(fun _ -> true) ~lookup req)

(* A workstation's prefix server with the standard bindings: the map
   from '[prefix]' to its target. *)
let prefix_find () =
  let t = Scenario.build ~workstations:1 ~file_servers:4 () in
  let ps = (Scenario.workstation t 0).Scenario.ws_prefix in
  let keys = Array.of_list (List.map fst (Prefix_server.bindings ps)) in
  let n = Array.length keys in
  pure ~ops:262_144 "naming.prefix_find" (fun i ->
      Prefix_server.find_binding ps keys.(i mod n))

let cache_find () =
  let c = Name_cache.create ~capacity:64 () in
  for i = 0 to 63 do
    ignore (Name_cache.learn c (Fmt.str "[fs0]dir%d/sub" i) some_spec)
  done;
  let names =
    Array.init 64 (fun i -> Fmt.str "[fs0]dir%d/sub/file%d.dat" i i)
  in
  pure ~ops:32_768 "naming.cache_find" (fun i ->
      Name_cache.find c names.(i land 63))

(* Learning into a full cache: every insert evicts the LRU entry. *)
let cache_learn () =
  let c = Name_cache.create ~capacity:64 () in
  let keys = Array.init 128 (fun i -> Fmt.str "[fs0]dir%d/sub" i) in
  pure "naming.cache_learn" (fun i ->
      Name_cache.learn c keys.(i land 127) some_spec)

let descriptor_roundtrip () =
  let d =
    Descriptor.make ~obj_type:Descriptor.File ~size:8192 ~owner:"mann"
      ~created:12.5 ~modified:99.25
      ~attrs:[ ("device", "xy0") ]
      "naming.mss"
  in
  pure ~ops:32_768 "naming.descriptor_roundtrip" (fun _ ->
      Descriptor.of_bytes (Descriptor.to_bytes d) 0)

(* --- installation probes: a client fiber on the standard installation --- *)

let file_name = "naming-test.mss1"

let install_file fs =
  let fs = File_server.fs fs in
  match Fs.create_file fs ~dir:Fs.root_ino ~owner:"bench" file_name with
  | Ok ino -> ignore (Fs.write_file fs ~ino (Bytes.of_string "measured"))
  | Error code -> failwith (Fmt.str "probe file: %a" Reply.pp code)

(* Run [body] as a client on workstation 0 and return its samples. *)
let on_client (t : Scenario.t) body =
  let result = ref [] in
  ignore
    (Scenario.spawn_client t ~ws:0 ~name:"probe" (fun self env ->
         result := body self env));
  Scenario.run t;
  !result

let resolver () =
  let t =
    Scenario.build ~config:C.ethernet_10mbit ~workstations:1 ~file_servers:1
      ()
  in
  install_file (Scenario.file_server t 0);
  let root = Lookup.build_tree t in
  let prefix = Lookup.domain_prefix in
  let name = Fmt.str "[%s]d1/d2/fs0/%s" prefix file_name in
  let events () = En.executed t.Scenario.engine in
  on_client t (fun self _env ->
      let warm = Resolver.create ~ttl_ms:1e12 ~prefix ~root () in
      ignore (Resolver.resolve warm self name);
      let hit =
        pure ~ops:16_384 "resolver.hit" (fun _ ->
            Resolver.resolve warm self name)
      in
      (* A cold walk: a fresh resolver each time, one query per level. *)
      let ops = 512 in
      let walk =
        measure ~name:"resolver.walk" ~ops ~events (fun () ->
            for _ = 1 to ops do
              let cold = Resolver.create ~prefix ~root () in
              ignore (Resolver.resolve cold self name)
            done)
      in
      [ hit; walk ])

(* The four E4 Open configurations, plus the prefixed Open on a warm
   client name cache. *)
let opens () =
  let t =
    Scenario.build ~config:C.ethernet_3mbit ~workstations:1 ~file_servers:1
      ~local_file_server_on:0 ()
  in
  let remote_fs = Scenario.file_server t 0 in
  let local_fs = Option.get t.Scenario.local_fs in
  install_file remote_fs;
  install_file local_fs;
  let root fs = File_server.spec fs ~context:Context.Well_known.default in
  let events () = En.executed t.Scenario.engine in
  on_client t (fun self env ->
      let ops = 1024 in
      let run name ~current file =
        Runtime.set_current_context env current;
        measure ~name ~ops ~events (fun () ->
            for _ = 1 to ops do
              match Runtime.open_ env ~mode:Vmsg.Read file with
              | Ok i -> ignore (Vio.Client.release self i)
              | Error e -> failwith (Fmt.str "%s: %a" name Vio.Verr.pp e)
            done)
      in
      let local = root local_fs and remote = root remote_fs in
      let uncached =
        [
          run "runtime.open_cc_local" ~current:local file_name;
          run "runtime.open_cc_remote" ~current:remote file_name;
          run "runtime.open_px_local" ~current:local ("[localfs]" ^ file_name);
          run "runtime.open_px_remote" ~current:local ("[fs0]" ^ file_name);
        ]
      in
      Runtime.enable_name_cache env true;
      uncached
      @ [ run "runtime.open_px_cached" ~current:local ("[fs0]" ^ file_name) ])

(* --- known defect: cached writes bypass write-all --- *)

(* With the client name cache on, a write under '[rstore]' learns a
   direct binding to one replica member and later writes skip the
   fan-out. Returns the number of names present on some member but not
   on all of them; 0 once the defect is fixed. *)
let cached_write_bypass () =
  let clients = 16 and writes = 50 in
  let shape =
    { (Churn.shape Tiny) with Churn.workstations = clients; file_servers = 3 }
  in
  let empty = { Churn.shape; initial = Array.make clients [||]; ops = [||] } in
  let t, members =
    Churn.install shape ~prepare_member:(Churn.seed_member empty)
  in
  for k = 0 to clients - 1 do
    ignore
      (Scenario.spawn_client t ~ws:k ~name:"cached-writer" (fun _self env ->
           Runtime.enable_name_cache env true;
           for i = 0 to writes - 1 do
             let name = Fmt.str "[rstore]%s/f%d" (Churn.dir_of k) i in
             ignore (Runtime.create env name)
           done))
  done;
  Scenario.run t;
  let entries k fs =
    match Churn.member_dir fs k with
    | Some (fs, dir) -> List.map fst (Fs.entries fs ~dir)
    | None -> []
  in
  let divergent = ref 0 in
  for k = 0 to clients - 1 do
    let views = List.map (entries k) members in
    let union = List.sort_uniq String.compare (List.concat views) in
    List.iter
      (fun n -> if not (List.for_all (List.mem n) views) then incr divergent)
      union
  done;
  !divergent

let all () =
  [
    schedule_fire ~name:"engine.schedule_fire" En.Wheel_queue;
    schedule_fire ~name:"engine.heap_schedule_fire" En.Heap_queue;
    timer_arm_cancel ();
    frames ~name:"net.frame_switched" ~topology:(T.switched ~fan_in)
      ~config:Soak.gigabit ~dst:fan_in;
    frames ~name:"net.frame_shared" ~topology:T.Shared_medium
      ~config:C.ethernet_10mbit ~dst:1;
    srr ~name:"kernel.srr_remote" ~remote:true;
    srr ~name:"kernel.srr_local" ~remote:false;
    forward ();
    group_send ();
    parse_prefix ();
    walk ();
    prefix_find ();
    cache_find ();
    cache_learn ();
    descriptor_roundtrip ();
  ]
  @ resolver () @ opens ()

(* Flatten samples into metrics, adding the derived remote-SRR self
   time: its cost minus its frames at the switched-frame cost, minus
   the events those frames do not account for at the schedule+fire
   cost. *)
let metrics samples =
  let find n = List.find (fun s -> s.name = n) samples in
  let get = Option.value ~default:0.0 in
  let sched = find "engine.schedule_fire"
  and frame = find "net.frame_switched"
  and remote = find "kernel.srr_remote" in
  let frames = get remote.frames in
  let self_ns =
    remote.ns
    -. (frames *. frame.ns)
    -. ((get remote.events -. (frames *. get frame.events)) *. sched.ns)
  in
  List.concat_map
    (fun s ->
      [
        (s.name ^ "_ns", s.ns);
        (s.name ^ "_ns_iqr", s.ns_iqr);
        (s.name ^ "_words", s.words);
      ]
      @
      match s.events with Some e -> [ (s.name ^ "_events", e) ] | None -> [])
    samples
  @ [
      ("kernel.srr_remote_self_ns", self_ns);
      ("replica.cached_write_bypass", float_of_int (cached_write_bypass ()));
    ]
