(* Simulated network fabric.

   Two topologies share one interface and one frame path (see
   {!Topology}):

   - [Shared_medium] (the default): the paper's single wire, modelled as
     a fabric of one link. A transmission waits until the wire is free,
     then propagates to the destination host(s), which are looked up
     when the frame arrives: one [free_at], one PRNG draw per frame, the
     same event schedule as the pre-fabric model.

   - [Switched { fan_in }]: hosts hang off edge switches, edges uplink
     to one spine, and every directed link owns its own [free_at] —
     independent segments carry traffic concurrently. Each hop is
     store-and-forward: the frame serializes onto the link, propagates,
     pays {!Calibration.switch_forward_ms} on entering a switch, and is
     replicated at switches for broadcast/multicast fan-out (one copy
     per link, not per destination). Each link has a bounded output
     queue: a frame arriving at a full port is tail-dropped and
     counted, per link and globally.

   A frame in transit is one flight record: the frame, the link it is
   crossing and the one closure the engine calls when it reaches the
   far end. [hop] puts a flight on a link and [arrive] steps it, so a
   unicast frame allocates one flight however many hops it takes, and
   its route is arithmetic on the dense link index
   ({!Topology.host_uplink} and friends). Link state lives in an array
   under that index and materializes on first use.

   Host CPU costs for building and consuming packets are charged by the
   kernel layer, not here; the network charges only queueing +
   transmission + propagation (+ per-switch forwarding in the switched
   fabric).

   The payload type is a parameter so this library sits below the
   kernel: the kernel instantiates ['a t] with its packet type. *)

type addr = int

type dest = Unicast of addr | Broadcast | Multicast of int

let pp_dest ppf = function
  | Unicast a -> Fmt.pf ppf "host%d" a
  | Broadcast -> Fmt.string ppf "broadcast"
  | Multicast g -> Fmt.pf ppf "group%d" g

type 'a frame = { src : addr; dst : dest; payload : 'a; payload_bytes : int }

type counters = {
  mutable frames_sent : int;
  mutable frames_delivered : int;
  mutable frames_dropped : int;
  mutable bytes_sent : int;
}

type 'a host_port = {
  host_addr : addr;
  mutable up : bool;
  mutable handler : 'a frame -> unit;
  mutable extra_latency_ms : float;
      (* slow-host fault injection: added to every frame's arrival *)
  wire : Vobs.Deferred.t;
      (* per-frame counters, in [wire_ops] order; see [flush_metrics] *)
}

(* One directed link, the shared wire included. [l_queued] counts
   frames occupying the port — queued, serializing or in flight — and
   is what the bounded-queue admission check reads. The float state
   sits in its own all-float record, which OCaml stores unboxed, so a
   hop updates it without allocating. *)
type link = {
  l_id : int;  (* dense index ({!Topology.link_index}); 0 for the wire *)
  mutable l_up : bool;
  mutable l_queued : int;
  mutable l_queue_peak : int;
  mutable l_frames : int;
  mutable l_drops : int;  (* tail drops + frames dying on a down link *)
  l_time : link_time;
}

and link_time = {
  mutable free_at : float;
  mutable busy_ms : float;  (* serialization time, for utilization *)
  mutable extra_ms : float;  (* slow-link fault injection, per hop *)
  mutable busy_sampled : float;  (* busy_ms at the last ts sample *)
}

let new_link id =
  {
    l_id = id;
    l_up = true;
    l_queued = 0;
    l_queue_peak = 0;
    l_frames = 0;
    l_drops = 0;
    l_time =
      { free_at = 0.0; busy_ms = 0.0; extra_ms = 0.0; busy_sampled = 0.0 };
  }

(* Fills the link array's slots that have not materialized. *)
let no_link = new_link (-1)

(* A frame in transit: the link it is crossing and the closure the
   engine runs when it reaches the far end. A fan-out frame carries
   the destinations it was sent to; a unicast one reads [frame.dst]. *)
type 'a flight = {
  fl_frame : 'a frame;
  fl_dests : addr list;
  mutable fl_link : link;
  fl_arrive : unit -> unit;
}

type link_stat = {
  ls_label : string;
  ls_up : bool;
  ls_frames : int;
  ls_drops : int;
  ls_queued : int;
  ls_queue_peak : int;
  ls_busy_ms : float;
  ls_extra_ms : float;
}

type 'a t = {
  engine : Vsim.Engine.t;
  config : Calibration.network;
  topology : Topology.t;
  queue_cap : int;
  prng : Vsim.Prng.t;
  hosts : (addr, 'a host_port) Hashtbl.t;
  groups : (int, (addr, unit) Hashtbl.t) Hashtbl.t;
  (* By dense link index; [no_link] where none has materialized. The
     shared medium's one link, the wire, is index 0. *)
  mutable links : link array;
  mutable loss_probability : float;
  (* Unordered host pairs that cannot exchange frames. *)
  mutable partitions : (addr * addr) list;
  counters : counters;
  mutable trace : Vsim.Trace.t option;
  mutable obs : Vobs.Hub.t option;
  mutable last_ts_sample : float;  (* when sample_timeseries last ran *)
  (* Interior (switch-to-switch) links with their three prebuilt series
     names, so a pump firing walks ~O(edges) records and allocates no
     strings. Links materialize lazily, so [materialize] keeps it current. *)
  mutable ts_interior : (string * string * string * link) list option;
}

let create ?(seed = 1) ?(topology = Topology.Shared_medium) ?(queue_cap = 256)
    ~config engine =
  if queue_cap < 1 then invalid_arg "Ethernet.create: queue_cap must be >= 1";
  {
    engine;
    config;
    topology;
    (* The wire queues without bound. *)
    queue_cap =
      (match topology with
      | Topology.Shared_medium -> max_int
      | Topology.Switched _ -> queue_cap);
    prng = Vsim.Prng.create ~seed;
    hosts = Hashtbl.create 16;
    groups = Hashtbl.create 16;
    links = [||];
    loss_probability = 0.0;
    partitions = [];
    counters =
      { frames_sent = 0; frames_delivered = 0; frames_dropped = 0; bytes_sent = 0 };
    trace = None;
    obs = None;
    last_ts_sample = 0.0;
    ts_interior = None;
  }

let set_trace t trace = t.trace <- Some trace
let set_obs t hub = t.obs <- Some hub

(* Per-host wire metrics are keyed under server "net". The address
   stands in for the host name — this layer sits below the kernel and
   has no better label. *)
let host_label addr = Printf.sprintf "host%d" addr

(* The guard spares building the label when no hub is attached. *)
let net_metric t addr op =
  if t.obs <> None then
    Vobs.Hub.count t.obs ~host:(host_label addr) ~server:"net" ~op

(* The per-frame counters (every frame pays them) are deferred: they
   accumulate on the port and [flush_metrics] moves them into the
   registry at scrape points (exports, the kernel pump's owner), never
   per frame. Rarer paths (drops, losses) stay on the keyed
   [net_metric]. *)
let wire_ops = [| "frames-sent"; "bytes-sent"; "frames-delivered" |]

let w_sent = 0
let w_bytes = 1
let w_delivered = 2

let flush_metrics t =
  match t.obs with
  | None -> ()
  | Some hub ->
      let m = Vobs.Hub.metrics hub in
      Hashtbl.iter
        (fun addr port ->
          Vobs.Deferred.flush port.wire m
            ~host:(fun () -> host_label addr)
            ~server:"net" ~ops:wire_ops)
        t.hosts

(* Flight-recorder events for the wire: frames lost or dropped,
   partitions cut and healed, loss-rate and slow-host changes. The
   label is only built when an attached hub's recorder is enabled;
   [host] is "host<addr>" for per-host events, "net" for wire-wide
   ones. *)
let net_event t host fmt =
  Vobs.Hub.eventf t.obs ~at:(Vsim.Engine.now t.engine) ~cat:Vobs.Eventlog.Net
    ~host ~trace:0 fmt

let config t = t.config

let topology t = t.topology

let queue_capacity t =
  match t.topology with
  | Topology.Shared_medium -> None
  | Topology.Switched _ -> Some t.queue_cap

let counters t = t.counters

let engine t = t.engine

exception Duplicate_host of addr

let attach t addr handler =
  if Hashtbl.mem t.hosts addr then raise (Duplicate_host addr);
  Hashtbl.replace t.hosts addr
    {
      host_addr = addr;
      up = true;
      handler;
      extra_latency_ms = 0.0;
      wire = Vobs.Deferred.create (Array.length wire_ops);
    }

let set_handler t addr handler =
  match Hashtbl.find_opt t.hosts addr with
  | None -> invalid_arg "Ethernet.set_handler: unknown host"
  | Some port -> port.handler <- handler

let host_up t addr =
  match Hashtbl.find_opt t.hosts addr with Some p -> p.up | None -> false

let set_host_up t addr up =
  match Hashtbl.find_opt t.hosts addr with
  | None -> invalid_arg "Ethernet.set_host_up: unknown host"
  | Some port -> port.up <- up

let hosts t = Hashtbl.fold (fun addr _ acc -> addr :: acc) t.hosts [] |> List.sort compare

(* --- multicast groups --- *)

let group_members t group =
  match Hashtbl.find_opt t.groups group with
  | None -> []
  | Some members ->
      Hashtbl.fold (fun a () acc -> a :: acc) members [] |> List.sort compare

let join_group t ~group ~addr =
  let members =
    match Hashtbl.find_opt t.groups group with
    | Some m -> m
    | None ->
        let m = Hashtbl.create 4 in
        Hashtbl.replace t.groups group m;
        m
  in
  Hashtbl.replace members addr ()

let leave_group t ~group ~addr =
  match Hashtbl.find_opt t.groups group with
  | None -> ()
  | Some members -> Hashtbl.remove members addr

(* --- links --- *)

let link_nodes t l = Topology.link_of_index t.topology l.l_id
let link_label t l = Topology.link_label (link_nodes t l)
let is_interior l = l.l_id land 3 >= 2

let interior_series t l =
  let label = link_label t l in
  ( "link/" ^ label ^ "/utilization-pct",
    "link/" ^ label ^ "/queue",
    "link/" ^ label ^ "/drops",
    l )

(* Links materialize on first use: the host population is dynamic, so
   the fabric cannot enumerate its ports up front. The array grows to
   the highest index touched. *)
let materialize t id =
  if id >= Array.length t.links then begin
    let grown = Array.make (max (id + 1) (2 * Array.length t.links)) no_link in
    Array.blit t.links 0 grown 0 (Array.length t.links);
    t.links <- grown
  end;
  let l = new_link id in
  t.links.(id) <- l;
  (* Keep the pump's interior-link cache coherent incrementally: host
     links (the overwhelming majority) never touch it, and a fresh
     interior link appends rather than forcing a rebuild. *)
  (match (t.topology, t.ts_interior) with
  | Topology.Switched _, Some cached when is_interior l ->
      t.ts_interior <- Some (interior_series t l :: cached)
  | _ -> ());
  l

let get_link t id =
  if id < Array.length t.links && t.links.(id) != no_link then t.links.(id)
  else materialize t id

(* An untouched link is up; only materialized links can be down. *)
let link_is_up t id =
  id >= Array.length t.links
  ||
  let l = t.links.(id) in
  l == no_link || l.l_up

let fold_links t f acc =
  Array.fold_left
    (fun acc l -> if l == no_link then acc else f acc l)
    acc t.links

let require_link t what (a, b) =
  (match t.topology with
  | Topology.Switched _ -> ()
  | Topology.Shared_medium ->
      invalid_arg (what ^ ": the shared medium has no links"));
  match Topology.link_index t.topology (a, b) with
  | Some id -> get_link t id
  | None ->
      invalid_arg
        (Fmt.str "%s: %a is not a link of this topology" what Topology.pp_link
           (a, b))

let set_link_up t a b up =
  let l = require_link t "Ethernet.set_link_up" (a, b) in
  if l.l_up <> up then begin
    l.l_up <- up;
    net_event t "net" "link %a %s" Topology.pp_link (a, b)
      (if up then "up" else "down")
  end

let link_up t a b =
  match t.topology with
  | Topology.Shared_medium -> true
  | Topology.Switched _ -> (
      match Topology.link_index t.topology (a, b) with
      | Some id -> link_is_up t id
      | None -> false)

let set_link_extra_latency t a b ms =
  if ms < 0.0 then invalid_arg "Ethernet.set_link_extra_latency";
  let l = require_link t "Ethernet.set_link_extra_latency" (a, b) in
  l.l_time.extra_ms <- ms;
  net_event t "net" "link %a extra latency := %.3fms" Topology.pp_link (a, b) ms

(* The wire is the shared medium's private link: it has no label and
   no faults, so it is not reported. *)
let link_stats t =
  match t.topology with
  | Topology.Shared_medium -> []
  | Topology.Switched _ ->
      fold_links t
        (fun acc l ->
          {
            ls_label = link_label t l;
            ls_up = l.l_up;
            ls_frames = l.l_frames;
            ls_drops = l.l_drops;
            ls_queued = l.l_queued;
            ls_queue_peak = l.l_queue_peak;
            ls_busy_ms = l.l_time.busy_ms;
            ls_extra_ms = l.l_time.extra_ms;
          }
          :: acc)
        []
      |> List.sort (fun a b -> compare a.ls_label b.ls_label)

(* Per-segment utilization into the metrics registry, as gauges keyed
   (link label, "net", op): utilization is serialization time over the
   clock so far, in percent. Gauges are idempotent — call at sampling
   points (vsh `net stats`, the E14 harness), not per frame. *)
let export_link_metrics t =
  match t.obs with
  | None -> ()
  | Some hub ->
      let m = Vobs.Hub.metrics hub in
      let now = Vsim.Engine.now t.engine in
      List.iter
        (fun s ->
          let pct = if now > 0.0 then s.ls_busy_ms /. now *. 100.0 else 0.0 in
          Vobs.Metrics.set_gauge m ~host:s.ls_label ~server:"net"
            ~op:"utilization-pct" pct;
          Vobs.Metrics.set_gauge m ~host:s.ls_label ~server:"net"
            ~op:"queue-peak"
            (float_of_int s.ls_queue_peak);
          Vobs.Metrics.set_gauge m ~host:s.ls_label ~server:"net" ~op:"drops"
            (float_of_int s.ls_drops))
        (link_stats t)

(* Feed the fabric's interior links (edge<->spine — the segments whose
   saturation explains a fleet-wide stall) into a time-series store:
   utilization over the interval since the previous sample (a gauge —
   this is the heatmap row), instantaneous queue occupancy (gauge), and
   cumulative drops (counter). Interior-only keeps the series count
   O(edges) instead of O(hosts); access-link health still reaches the
   rollup via {!export_link_metrics}. Call at sampling points (the
   kernel telemetry pump), never per frame. *)
let interior_links t =
  match t.ts_interior with
  | Some cached -> cached
  | None ->
      let cached =
        match t.topology with
        | Topology.Shared_medium -> []
        | Topology.Switched _ ->
            fold_links t
              (fun acc l ->
                if is_interior l then interior_series t l :: acc else acc)
              []
      in
      t.ts_interior <- Some cached;
      cached

let sample_timeseries t ts ~now =
  let interval = now -. t.last_ts_sample in
  List.iter
    (fun (s_util, s_queue, s_drops, l) ->
      let tm = l.l_time in
      let busy = tm.busy_ms -. tm.busy_sampled in
      tm.busy_sampled <- tm.busy_ms;
      let pct = if interval > 0.0 then busy /. interval *. 100.0 else 0.0 in
      Vobs.Timeseries.sample ts s_util Vobs.Timeseries.Gauge ~now pct;
      Vobs.Timeseries.sample ts s_queue Vobs.Timeseries.Gauge ~now
        (float_of_int l.l_queued);
      Vobs.Timeseries.sample ts s_drops Vobs.Timeseries.Counter ~now
        (float_of_int l.l_drops))
    (interior_links t);
  t.last_ts_sample <- now

(* --- fault injection --- *)

let trace_emit t fmt =
  match t.trace with
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  | Some tr -> Vsim.Trace.emit tr ~category:"net" fmt

let set_loss_probability t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Ethernet.set_loss_probability";
  t.loss_probability <- p;
  (* Audit trail: fault plans that flip the loss rate leave a record in
     the trace stream, the flight recorder and the metrics gauge. *)
  trace_emit t "loss probability := %.3f" p;
  net_event t "net" "loss probability := %.3f" p;
  match t.obs with
  | None -> ()
  | Some hub ->
      Vobs.Metrics.set_gauge (Vobs.Hub.metrics hub) ~host:"net" ~server:"net"
        ~op:"loss-probability" p

let loss_probability t = t.loss_probability

let set_extra_latency t addr ms =
  if ms < 0.0 then invalid_arg "Ethernet.set_extra_latency";
  match Hashtbl.find_opt t.hosts addr with
  | None -> invalid_arg "Ethernet.set_extra_latency: unknown host"
  | Some port ->
      port.extra_latency_ms <- ms;
      trace_emit t "host%d extra receive latency := %.3fms" addr ms;
      net_event t (host_label addr) "extra receive latency := %.3fms" ms

let partition t a b =
  let pair = if a < b then (a, b) else (b, a) in
  if not (List.mem pair t.partitions) then begin
    t.partitions <- pair :: t.partitions;
    net_event t "net" "partition host%d <-> host%d" (fst pair) (snd pair)
  end

let heal t a b =
  let pair = if a < b then (a, b) else (b, a) in
  if List.mem pair t.partitions then begin
    t.partitions <- List.filter (fun p -> p <> pair) t.partitions;
    net_event t "net" "heal host%d <-> host%d" (fst pair) (snd pair)
  end

(* Host-pair partitions are rare: with none, the check allocates
   nothing. *)
let partitioned t a b =
  t.partitions <> []
  && List.mem (if a < b then (a, b) else (b, a)) t.partitions

(* Can frames flow from [a] to [b]? Host-pair partitions apply in both
   topologies; the switched fabric additionally requires every directed
   link on the path to be up. The kernel's reachability probes ask this
   instead of [partitioned], so a cut uplink times transactions out the
   same way a partition does. *)
let reachable t a b =
  (not (partitioned t a b))
  &&
  match t.topology with
  | Topology.Shared_medium -> true
  | Topology.Switched { fan_in } ->
      let ea = Topology.edge_of ~fan_in a and eb = Topology.edge_of ~fan_in b in
      link_is_up t (Topology.host_uplink a)
      && (ea = eb
         || link_is_up t (Topology.edge_uplink ea)
            && link_is_up t (Topology.edge_downlink eb))
      && link_is_up t (Topology.host_downlink b)

let pp ppf t =
  let slow =
    Hashtbl.fold
      (fun addr port acc ->
        if port.extra_latency_ms > 0.0 then (addr, port.extra_latency_ms) :: acc
        else acc)
      t.hosts []
    |> List.sort compare
  in
  let down_links = fold_links t (fun n l -> if l.l_up then n else n + 1) 0 in
  Fmt.pf ppf
    "net: %a, %d hosts, loss %.3f, %d partitions%a%a, sent %d delivered %d \
     dropped %d (%dB)"
    Topology.pp t.topology (Hashtbl.length t.hosts) t.loss_probability
    (List.length t.partitions)
    Fmt.(
      list ~sep:nop (fun ppf (a, ms) -> pf ppf ", host%d slow +%.1fms" a ms))
    slow
    Fmt.(
      fun ppf n -> if n > 0 then pf ppf ", %d link(s) down" n)
    down_links t.counters.frames_sent t.counters.frames_delivered
    t.counters.frames_dropped t.counters.bytes_sent

(* --- transmission --- *)

(* A broadcast or multicast frame's destinations, ascending, sender
   excluded (checks of liveness and partitions happen at arrival,
   counting drops). *)
let fan_out_destinations t frame =
  let not_self a = a <> frame.src in
  match frame.dst with
  | Unicast _ -> []
  | Broadcast -> List.filter not_self (hosts t)
  | Multicast g -> List.filter not_self (group_members t g)

let deliver t port frame =
  t.counters.frames_delivered <- t.counters.frames_delivered + 1;
  Vobs.Deferred.incr port.wire w_delivered;
  port.handler frame

(* Hand one frame copy to a destination port: liveness and host-pair
   partitions are checked now — arrival time — so a host that crashed
   while the frame was in flight never sees it. Shared by both
   topologies; must be called from an event at the frame's arrival
   instant. *)
let deliver_at_arrival t frame addr =
  match Hashtbl.find_opt t.hosts addr with
  | Some port when port.up && not (partitioned t frame.src addr) ->
      if port.extra_latency_ms > 0.0 then
        (* Slow-host injection: the NIC holds the frame. The host may
           crash while it sits there, so re-check liveness at the
           deferred delivery time. *)
        Vsim.Engine.schedule_at t.engine
          (Vsim.Engine.now t.engine +. port.extra_latency_ms)
          (fun () ->
            if port.up then deliver t port frame
            else begin
              t.counters.frames_dropped <- t.counters.frames_dropped + 1;
              net_metric t addr "frames-dropped"
            end)
      else deliver t port frame
  | Some _ | None ->
      t.counters.frames_dropped <- t.counters.frames_dropped + 1;
      net_metric t addr "frames-dropped";
      net_event t (host_label addr)
        "frame dropped from host%d (down or partitioned)" frame.src

(* The frame-wide loss draw, one per transmitted frame in both
   topologies. Returns true when the frame is lost (accounted). *)
let frame_lost t frame =
  let lost =
    t.loss_probability > 0.0 && Vsim.Prng.float t.prng < t.loss_probability
  in
  if lost then begin
    t.counters.frames_dropped <- t.counters.frames_dropped + 1;
    net_metric t frame.src "frames-lost";
    net_event t (host_label frame.src) "frame lost -> %a (%dB)" pp_dest
      frame.dst frame.payload_bytes
  end;
  lost

let drop t fl l what =
  let src = fl.fl_frame.src in
  l.l_drops <- l.l_drops + 1;
  t.counters.frames_dropped <- t.counters.frames_dropped + 1;
  net_metric t src "frames-dropped";
  net_event t (host_label src) "frame %s %a" what Topology.pp_link
    (link_nodes t l)

(* One store-and-forward hop onto link [id]: admission-check the
   port's bounded queue, serialize behind [free_at], propagate, and
   have the engine run the flight's [arrive] at the instant the frame
   is available at the far node. [at] is when the frame is ready to
   leave: the caller has added {!Calibration.switch_forward_ms} when it
   leaves a switch. *)
let hop t fl id ~at =
  let l = get_link t id in
  if not l.l_up then drop t fl l "dropped on down link"
  else if l.l_queued >= t.queue_cap then drop t fl l "tail-dropped at full port"
  else begin
    l.l_queued <- l.l_queued + 1;
    if l.l_queued > l.l_queue_peak then l.l_queue_peak <- l.l_queued;
    let tm = l.l_time in
    let start = if at >= tm.free_at then at else tm.free_at in
    let duration =
      Calibration.transmission_ms t.config
        ~payload_bytes:fl.fl_frame.payload_bytes
    in
    tm.free_at <- start +. duration;
    tm.busy_ms <- tm.busy_ms +. duration;
    l.l_frames <- l.l_frames + 1;
    fl.fl_link <- l;
    Vsim.Engine.schedule_at t.engine
      (start +. duration +. t.config.propagation_ms +. tm.extra_ms)
      fl.fl_arrive
  end

(* A flight has reached the far end of [fl_link]: step it. The link
   index says where it is. On the wire the frame has arrived: one loss
   draw, then the destinations as they stand now. In the switched
   fabric a unicast flight moves on to its next link; a fan-out one is
   replicated, a new flight per outgoing link, in ascending order of
   destination. The loss draw happens once per frame as it clears the
   source uplink, mirroring the wire's one draw per frame. *)
let rec arrive t fl =
  let l = fl.fl_link in
  l.l_queued <- l.l_queued - 1;
  let frame = fl.fl_frame in
  match t.topology with
  | Topology.Shared_medium -> (
      if not (frame_lost t frame) then
        match frame.dst with
        | Unicast a -> if a <> frame.src then deliver_at_arrival t frame a
        | Broadcast | Multicast _ ->
            List.iter
              (deliver_at_arrival t frame)
              (fan_out_destinations t frame))
  | Topology.Switched { fan_in } -> (
      let at = Vsim.Engine.now t.engine +. Calibration.switch_forward_ms in
      let x = l.l_id lsr 2 in
      match l.l_id land 3 with
      | 0 -> (
          (* At the source's edge switch; [x] is the source. *)
          let e = Topology.edge_of ~fan_in x in
          if not (frame_lost t frame) then
            match frame.dst with
            | Unicast a ->
                if a = x then ()
                else if Topology.edge_of ~fan_in a = e then
                  hop t fl (Topology.host_downlink a) ~at
                else hop t fl (Topology.edge_uplink e) ~at
            | Broadcast | Multicast _ ->
                List.iter
                  (fun a ->
                    if Topology.edge_of ~fan_in a = e then
                      replicate t fl (Topology.host_downlink a) ~at)
                  fl.fl_dests;
                if List.exists (fun a -> Topology.edge_of ~fan_in a <> e)
                     fl.fl_dests
                then replicate t fl (Topology.edge_uplink e) ~at)
      | 1 -> deliver_at_arrival t frame x
      | 2 -> (
          (* At the spine; [x] is the source's edge. The destinations are
             ascending, so their edges are too. *)
          match frame.dst with
          | Unicast a ->
              hop t fl (Topology.edge_downlink (Topology.edge_of ~fan_in a)) ~at
          | Broadcast | Multicast _ ->
              let rec down last = function
                | [] -> ()
                | a :: rest ->
                    let e = Topology.edge_of ~fan_in a in
                    if e <> x && e <> last then begin
                      replicate t fl (Topology.edge_downlink e) ~at;
                      down e rest
                    end
                    else down last rest
              in
              down (-1) fl.fl_dests)
      | _ -> (
          (* At a destination's edge switch; [x] is that edge. *)
          match frame.dst with
          | Unicast a -> hop t fl (Topology.host_downlink a) ~at
          | Broadcast | Multicast _ ->
              List.iter
                (fun a ->
                  if Topology.edge_of ~fan_in a = x then
                    replicate t fl (Topology.host_downlink a) ~at)
                fl.fl_dests))

(* A fan-out copy of [fl] onto link [id]: a flight of its own. *)
and replicate t fl id ~at =
  hop t (flight t fl.fl_frame fl.fl_dests) id ~at

and flight t frame dests =
  let rec fl =
    {
      fl_frame = frame;
      fl_dests = dests;
      fl_link = no_link;
      fl_arrive = (fun () -> arrive t fl);
    }
  in
  fl

(* Queue a frame for transmission. The sending host must exist and be
   up; otherwise the frame vanishes (its kernel is dead anyway). On the
   wire a fan-out frame finds its destinations when it arrives; in the
   switched fabric it takes them along when it leaves. *)
let transmit t frame =
  match Hashtbl.find_opt t.hosts frame.src with
  | Some port when port.up -> (
      t.counters.frames_sent <- t.counters.frames_sent + 1;
      t.counters.bytes_sent <-
        t.counters.bytes_sent + t.config.header_bytes + frame.payload_bytes;
      Vobs.Deferred.incr port.wire w_sent;
      Vobs.Deferred.add port.wire w_bytes
        (t.config.header_bytes + frame.payload_bytes);
      if t.trace <> None then
        trace_emit t "host%d -> %a (%dB payload)" frame.src pp_dest frame.dst
          frame.payload_bytes;
      let at = Vsim.Engine.now t.engine in
      match t.topology with
      | Topology.Shared_medium -> hop t (flight t frame []) 0 ~at
      | Topology.Switched _ ->
          hop t
            (flight t frame (fan_out_destinations t frame))
            (Topology.host_uplink frame.src)
            ~at)
  | Some _ | None -> ()
