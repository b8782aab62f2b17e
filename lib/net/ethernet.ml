(* Simulated network fabric.

   Two topologies share one interface (see {!Topology}):

   - [Shared_medium] (the default): the paper's single wire. A
     transmission waits until the medium is free, then propagates to
     the destination host(s). This path is kept bit-for-bit identical
     to the pre-fabric model: one [wire_free_at], one PRNG draw per
     frame, the same event schedule.

   - [Switched { fan_in }]: hosts hang off edge switches, edges uplink
     to one spine, and every directed link owns its own [l_free_at] —
     independent segments carry traffic concurrently. Each hop is
     store-and-forward: the frame serializes onto the link, propagates,
     pays {!Calibration.switch_forward_ms} on entering a switch, and is
     replicated at switches for broadcast/multicast fan-out (one copy
     per link, not per destination). Each link has a bounded output
     queue: a frame arriving at a full port is tail-dropped and
     counted, per link and globally.

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

(* One directed link of the switched fabric. [l_queued] counts frames
   occupying the port — queued, serializing or in flight — and is what
   the bounded-queue admission check reads; [l_busy_ms] accumulates
   serialization time for utilization accounting. *)
type link = {
  link_id : Topology.node * Topology.node;
  mutable l_up : bool;
  mutable l_free_at : float;
  mutable l_queued : int;
  mutable l_queue_peak : int;
  mutable l_frames : int;
  mutable l_drops : int;  (* tail drops + frames dying on a down link *)
  mutable l_busy_ms : float;
  mutable l_extra_ms : float;  (* slow-link fault injection, per hop *)
  mutable l_busy_sampled : float;  (* l_busy_ms at the last ts sample *)
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
  mutable wire_free_at : float;  (* Shared_medium only *)
  links : (Topology.node * Topology.node, link) Hashtbl.t;  (* Switched only *)
  mutable loss_probability : float;
  (* Unordered host pairs that cannot exchange frames. *)
  mutable partitions : (addr * addr) list;
  counters : counters;
  mutable trace : Vsim.Trace.t option;
  mutable obs : Vobs.Hub.t option;
  mutable last_ts_sample : float;  (* when sample_timeseries last ran *)
  (* Interior (switch-to-switch) links with their three prebuilt series
     names, so a pump firing walks ~O(edges) records and allocates no
     strings. Links materialize lazily, so [get_link] invalidates. *)
  mutable ts_interior : (string * string * string * link) list option;
}

let create ?(seed = 1) ?(topology = Topology.Shared_medium) ?(queue_cap = 256)
    ~config engine =
  if queue_cap < 1 then invalid_arg "Ethernet.create: queue_cap must be >= 1";
  {
    engine;
    config;
    topology;
    queue_cap;
    prng = Vsim.Prng.create ~seed;
    hosts = Hashtbl.create 16;
    groups = Hashtbl.create 16;
    wire_free_at = 0.0;
    links = Hashtbl.create 64;
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

(* --- the switched fabric's links --- *)

(* Links materialize on first use: the host population is dynamic, so
   the fabric cannot enumerate its ports up front. *)
let get_link t key =
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
      let l =
        {
          link_id = key;
          l_up = true;
          l_free_at = 0.0;
          l_queued = 0;
          l_queue_peak = 0;
          l_frames = 0;
          l_drops = 0;
          l_busy_ms = 0.0;
          l_extra_ms = 0.0;
          l_busy_sampled = 0.0;
        }
      in
      Hashtbl.replace t.links key l;
      (* Keep the pump's interior-link cache coherent incrementally:
         host links (the overwhelming majority) never touch it, and a
         fresh interior link appends rather than forcing a rebuild. *)
      (match (key, t.ts_interior) with
      | ((Topology.Host _, _ | _, Topology.Host _), _) | _, None -> ()
      | _, Some cached ->
          let label = Topology.link_label key in
          t.ts_interior <-
            Some
              (( "link/" ^ label ^ "/utilization-pct",
                 "link/" ^ label ^ "/queue",
                 "link/" ^ label ^ "/drops",
                 l )
              :: cached));
      l

let require_link t what (a, b) =
  (match t.topology with
  | Topology.Switched _ -> ()
  | Topology.Shared_medium ->
      invalid_arg (what ^ ": the shared medium has no links"));
  if not (Topology.is_link t.topology (a, b)) then
    invalid_arg
      (Fmt.str "%s: %a is not a link of this topology" what Topology.pp_link
         (a, b));
  get_link t (a, b)

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
  | Topology.Switched _ ->
      if not (Topology.is_link t.topology (a, b)) then false
      else
        (* An untouched link is up; only materialized links can be
           down. *)
        (match Hashtbl.find_opt t.links (a, b) with
        | Some l -> l.l_up
        | None -> true)

let set_link_extra_latency t a b ms =
  if ms < 0.0 then invalid_arg "Ethernet.set_link_extra_latency";
  let l = require_link t "Ethernet.set_link_extra_latency" (a, b) in
  l.l_extra_ms <- ms;
  net_event t "net" "link %a extra latency := %.3fms" Topology.pp_link (a, b) ms

let link_stats t =
  Hashtbl.fold
    (fun key l acc ->
      {
        ls_label = Topology.link_label key;
        ls_up = l.l_up;
        ls_frames = l.l_frames;
        ls_drops = l.l_drops;
        ls_queued = l.l_queued;
        ls_queue_peak = l.l_queue_peak;
        ls_busy_ms = l.l_busy_ms;
        ls_extra_ms = l.l_extra_ms;
      }
      :: acc)
    t.links []
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
        Hashtbl.fold
          (fun key l acc ->
            match key with
            | Topology.Host _, _ | _, Topology.Host _ -> acc
            | _ ->
                let label = Topology.link_label key in
                ( "link/" ^ label ^ "/utilization-pct",
                  "link/" ^ label ^ "/queue",
                  "link/" ^ label ^ "/drops",
                  l )
                :: acc)
          t.links []
      in
      t.ts_interior <- Some cached;
      cached

let sample_timeseries t ts ~now =
  let interval = now -. t.last_ts_sample in
  List.iter
    (fun (s_util, s_queue, s_drops, l) ->
      let busy = l.l_busy_ms -. l.l_busy_sampled in
      l.l_busy_sampled <- l.l_busy_ms;
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

let partitioned t a b =
  let pair = if a < b then (a, b) else (b, a) in
  List.mem pair t.partitions

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
  | Topology.Switched _ ->
      List.for_all
        (fun (x, y) -> link_up t x y)
        (Topology.links t.topology ~src:a ~dst:b)

let pp ppf t =
  let slow =
    Hashtbl.fold
      (fun addr port acc ->
        if port.extra_latency_ms > 0.0 then (addr, port.extra_latency_ms) :: acc
        else acc)
      t.hosts []
    |> List.sort compare
  in
  let down_links =
    Hashtbl.fold (fun _ l acc -> if l.l_up then acc else acc + 1) t.links 0
  in
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

(* Addresses a frame is aimed at, before liveness/partition checks
   (those happen at arrival time, counting drops). *)
let intended_destinations t frame =
  let not_self a = a <> frame.src in
  match frame.dst with
  | Unicast a -> if not_self a then [ a ] else []
  | Broadcast -> List.filter not_self (hosts t)
  | Multicast g -> List.filter not_self (group_members t g)

(* Hand one frame copy to a destination port: liveness and host-pair
   partitions are checked now — arrival time — so a host that crashed
   while the frame was in flight never sees it. Shared by both
   topologies; must be called from an event at the frame's arrival
   instant. *)
let deliver_at_arrival t frame addr =
  match Hashtbl.find_opt t.hosts addr with
  | Some port when port.up && not (partitioned t frame.src addr) ->
      let deliver () =
        t.counters.frames_delivered <- t.counters.frames_delivered + 1;
        Vobs.Deferred.incr port.wire w_delivered;
        port.handler frame
      in
      if port.extra_latency_ms > 0.0 then
        (* Slow-host injection: the NIC holds the frame. The host may
           crash while it sits there, so re-check liveness at the
           deferred delivery time. *)
        Vsim.Engine.schedule_at t.engine
          (Vsim.Engine.now t.engine +. port.extra_latency_ms)
          (fun () ->
            if port.up then deliver ()
            else begin
              t.counters.frames_dropped <- t.counters.frames_dropped + 1;
              net_metric t addr "frames-dropped"
            end)
      else deliver ()
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

(* The single-wire path, bit-for-bit the pre-fabric model: one
   [wire_free_at], transmission then propagation, one loss draw per
   frame at arrival time. *)
let transmit_shared t frame =
  let now = Vsim.Engine.now t.engine in
  let start = Float.max now t.wire_free_at in
  let duration =
    Calibration.transmission_ms t.config ~payload_bytes:frame.payload_bytes
  in
  t.wire_free_at <- start +. duration;
  let arrival = start +. duration +. t.config.propagation_ms in
  Vsim.Engine.schedule_at t.engine arrival (fun () ->
      if not (frame_lost t frame) then
        List.iter
          (fun addr -> deliver_at_arrival t frame addr)
          (intended_destinations t frame))

(* One store-and-forward hop of the switched fabric: admission-check
   the port's bounded queue, serialize behind [l_free_at], propagate,
   then run [k] at the instant the frame is available at the far node.
   [k] must add {!Calibration.switch_forward_ms} itself when the far
   node is a switch (final host delivery pays no forwarding cost). *)
let hop t frame key ~at k =
  let l = get_link t key in
  if not l.l_up then begin
    l.l_drops <- l.l_drops + 1;
    t.counters.frames_dropped <- t.counters.frames_dropped + 1;
    net_metric t frame.src "frames-dropped";
    net_event t (host_label frame.src) "frame dropped on down link %a"
      Topology.pp_link key
  end
  else if l.l_queued >= t.queue_cap then begin
    l.l_drops <- l.l_drops + 1;
    t.counters.frames_dropped <- t.counters.frames_dropped + 1;
    net_metric t frame.src "frames-dropped";
    net_event t (host_label frame.src) "frame tail-dropped at full port %a"
      Topology.pp_link key
  end
  else begin
    l.l_queued <- l.l_queued + 1;
    if l.l_queued > l.l_queue_peak then l.l_queue_peak <- l.l_queued;
    let start = Float.max at l.l_free_at in
    let duration =
      Calibration.transmission_ms t.config ~payload_bytes:frame.payload_bytes
    in
    l.l_free_at <- start +. duration;
    l.l_busy_ms <- l.l_busy_ms +. duration;
    l.l_frames <- l.l_frames + 1;
    let arrival = start +. duration +. t.config.propagation_ms +. l.l_extra_ms in
    Vsim.Engine.schedule_at t.engine arrival (fun () ->
        l.l_queued <- l.l_queued - 1;
        k arrival)
  end

(* The switched path. The first hop (source uplink) carries one copy
   regardless of fan-out; switches replicate — one copy per outgoing
   link, never per destination — so a broadcast costs O(links touched),
   not O(hosts) transmissions on any single segment. The loss draw
   happens once per frame as it clears the source uplink, mirroring the
   shared medium's one-draw-per-frame accounting. *)
let transmit_switched t fan_in frame =
  let now = Vsim.Engine.now t.engine in
  let dests = intended_destinations t frame in
  let src_edge = Topology.edge_of ~fan_in frame.src in
  hop t frame (Topology.Host frame.src, Topology.Edge src_edge) ~at:now
    (fun at ->
      if not (frame_lost t frame) then begin
        let at = at +. Calibration.switch_forward_ms in
        let local, remote =
          List.partition (fun a -> Topology.edge_of ~fan_in a = src_edge) dests
        in
        List.iter
          (fun a ->
            hop t frame (Topology.Edge src_edge, Topology.Host a) ~at
              (fun at ->
                ignore at;
                deliver_at_arrival t frame a))
          local;
        if remote <> [] then
          hop t frame (Topology.Edge src_edge, Topology.Spine) ~at (fun at ->
              let at = at +. Calibration.switch_forward_ms in
              let edges =
                List.sort_uniq compare
                  (List.map (Topology.edge_of ~fan_in) remote)
              in
              List.iter
                (fun eb ->
                  hop t frame (Topology.Spine, Topology.Edge eb) ~at (fun at ->
                      let at = at +. Calibration.switch_forward_ms in
                      List.iter
                        (fun a ->
                          if Topology.edge_of ~fan_in a = eb then
                            hop t frame (Topology.Edge eb, Topology.Host a) ~at
                              (fun at ->
                                ignore at;
                                deliver_at_arrival t frame a))
                        remote))
                edges)
      end)

(* Queue a frame for transmission. The sending host must exist and be
   up; otherwise the frame vanishes (its kernel is dead anyway). *)
let transmit t frame =
  let src_port =
    match Hashtbl.find_opt t.hosts frame.src with
    | Some port when port.up -> Some port
    | Some _ | None -> None
  in
  match src_port with
  | None -> ()
  | Some port ->
    t.counters.frames_sent <- t.counters.frames_sent + 1;
    t.counters.bytes_sent <-
      t.counters.bytes_sent + t.config.header_bytes + frame.payload_bytes;
    Vobs.Deferred.incr port.wire w_sent;
    Vobs.Deferred.add port.wire w_bytes
      (t.config.header_bytes + frame.payload_bytes);
    trace_emit t "host%d -> %a (%dB payload)" frame.src pp_dest frame.dst
      frame.payload_bytes;
    match t.topology with
    | Topology.Shared_medium -> transmit_shared t frame
    | Topology.Switched { fan_in } -> transmit_switched t fan_in frame
