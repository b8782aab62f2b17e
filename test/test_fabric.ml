(* Tests for the switched multi-segment fabric: topology arithmetic,
   the shared-medium oracle (the fabric's Shared_medium path must
   reproduce the single-wire model bit for bit), per-link faults,
   bounded-port drop accounting, and multi-hop latency composition. *)

module E = Vnet.Ethernet
module T = Vnet.Topology
module C = Vnet.Calibration

let check_float = Alcotest.(check (float 1e-9))

let tx = C.transmission_ms C.ethernet_3mbit ~payload_bytes:32
let prop = C.ethernet_3mbit.C.propagation_ms

(* --- topology arithmetic --- *)

let test_topology_paths () =
  let t = T.switched ~fan_in:4 in
  Alcotest.(check int) "edge of host 0" 0 (T.edge_of ~fan_in:4 0);
  Alcotest.(check int) "edge of host 7" 1 (T.edge_of ~fan_in:4 7);
  Alcotest.(check int) "same edge: 2 hops" 2 (T.hop_count t ~src:0 ~dst:3);
  Alcotest.(check int) "cross edge: 4 hops" 4 (T.hop_count t ~src:0 ~dst:7);
  Alcotest.(check int) "shared wire: 1 hop" 1
    (T.hop_count T.Shared_medium ~src:0 ~dst:7);
  (match T.path t ~src:1 ~dst:6 with
  | [ T.Host 1; T.Edge 0; T.Spine; T.Edge 1; T.Host 6 ] -> ()
  | p -> Alcotest.failf "unexpected path: %d nodes" (List.length p));
  Alcotest.(check bool) "uplink is a link" true (T.is_link t (T.Host 2, T.Edge 0));
  Alcotest.(check bool) "wrong edge is not" false
    (T.is_link t (T.Host 2, T.Edge 1));
  Alcotest.(check bool) "host-host is not" false
    (T.is_link t (T.Host 2, T.Host 3));
  Alcotest.(check bool) "shared medium has no links" false
    (T.is_link T.Shared_medium (T.Host 0, T.Host 1))

let test_node_string_round_trip () =
  List.iter
    (fun n ->
      match T.node_of_string (T.node_to_string n) with
      | Some n' when T.equal_node n n' -> ()
      | _ -> Alcotest.failf "round trip failed for %s" (T.node_to_string n))
    [ T.Host 0; T.Host 17; T.Edge 3; T.Spine ];
  Alcotest.(check bool) "garbage rejected" true
    (T.node_of_string "switch9" = None)

(* --- the shared-medium oracle --- *)

(* Reference single-wire model: frames serialize behind one
   wire-free-at cursor, then arrive after transmission + propagation.
   The fabric's Shared_medium path must produce exactly these arrival
   times in exactly this order — this is the bit-identity contract the
   E1-E13 baselines rest on. *)
let single_wire_reference sends =
  let wire_free = ref 0.0 in
  List.map
    (fun (at, src, dst, bytes) ->
      let start = Float.max at !wire_free in
      let duration = C.transmission_ms C.ethernet_3mbit ~payload_bytes:bytes in
      wire_free := start +. duration;
      (start +. duration +. prop, src, dst))
    sends

let prop_shared_matches_single_wire =
  QCheck.Test.make ~name:"Shared_medium reproduces the single-wire model"
    ~count:200
    QCheck.(
      small_list (triple (int_range 0 50) (pair (int_range 0 3) (int_range 0 3))
          (int_range 1 600)))
    (fun raw ->
      (* Sends at integer-ms marks, in list order at equal times —
         matching the engine's FIFO tie-break. *)
      let sends =
        List.filter_map
          (fun (at, (src, dst), bytes) ->
            if src = dst then None
            else Some (float_of_int at, src, dst, bytes))
          raw
        (* The engine executes in time order with FIFO tie-break, so the
           reference must walk the sends the same way. *)
        |> List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)
      in
      let eng = Vsim.Engine.create () in
      let net = E.create ~config:C.ethernet_3mbit eng in
      for a = 0 to 3 do
        E.attach net a (fun _ -> ())
      done;
      let deliveries = ref [] in
      for a = 0 to 3 do
        E.set_handler net a (fun frame ->
            deliveries := (Vsim.Engine.now eng, frame.E.src, a) :: !deliveries)
      done;
      List.iter
        (fun (at, src, dst, bytes) ->
          Vsim.Engine.schedule_at eng at (fun () ->
              E.transmit net
                { E.src; dst = E.Unicast dst; payload = (); payload_bytes = bytes }))
        sends;
      Vsim.Engine.run eng;
      let got = List.rev !deliveries in
      let expected = single_wire_reference sends in
      if List.length got <> List.length expected then
        QCheck.Test.fail_reportf "delivered %d frames, expected %d"
          (List.length got) (List.length expected)
      else begin
        List.iter2
          (fun (gt, gs, gd) (et, es, ed) ->
            if gs <> es || gd <> ed || Float.abs (gt -. et) > 1e-9 then
              QCheck.Test.fail_reportf
                "delivery diverged: got %d->%d at %.6f, expected %d->%d at %.6f"
                gs gd gt es ed et)
          got expected;
        true
      end)

(* --- per-link faults --- *)

let make_switched ?(queue_cap = 256) ?(fan_in = 2) ?(hosts = 4) () =
  let eng = Vsim.Engine.create () in
  let net =
    E.create ~config:C.ethernet_3mbit ~topology:(T.switched ~fan_in) ~queue_cap
      eng
  in
  let hits = Array.make hosts 0 in
  for a = 0 to hosts - 1 do
    E.attach net a (fun _ -> hits.(a) <- hits.(a) + 1)
  done;
  (eng, net, hits)

let send net src dst =
  E.transmit net
    { E.src; dst = E.Unicast dst; payload = (); payload_bytes = 32 }

let test_link_cut () =
  let eng, net, hits = make_switched () in
  (* fan_in 2: hosts 0,1 on edge0; hosts 2,3 on edge1. *)
  E.set_link_up net (T.Edge 0) T.Spine false;
  Alcotest.(check bool) "cross-edge unreachable" false (E.reachable net 0 2);
  Alcotest.(check bool) "same edge still reachable" true (E.reachable net 0 1);
  Alcotest.(check bool) "reverse direction unaffected" true (E.reachable net 2 0);
  send net 0 2 (* dies at the cut uplink *);
  send net 0 1 (* same edge, unaffected *);
  send net 2 0 (* reverse path uses edge1->spine, up *);
  Vsim.Engine.run eng;
  Alcotest.(check int) "cross-edge frame dropped" 0 hits.(2);
  Alcotest.(check int) "same-edge delivered" 1 hits.(1);
  Alcotest.(check int) "reverse delivered" 1 hits.(0);
  Alcotest.(check int) "drop counted" 1 (E.counters net).E.frames_dropped;
  let cut =
    List.find
      (fun s -> s.E.ls_label = T.link_label (T.Edge 0, T.Spine))
      (E.link_stats net)
  in
  Alcotest.(check bool) "link reported down" false cut.E.ls_up;
  Alcotest.(check int) "per-link drop counted" 1 cut.E.ls_drops;
  E.set_link_up net (T.Edge 0) T.Spine true;
  Alcotest.(check bool) "healed" true (E.reachable net 0 2);
  send net 0 2;
  Vsim.Engine.run eng;
  Alcotest.(check int) "flows after heal" 1 hits.(2)

let test_queue_full_drops () =
  let eng, net, hits = make_switched ~queue_cap:2 () in
  (* Six same-instant frames against a 2-deep port: 2 admitted, 4
     tail-dropped before anything drains. *)
  for _ = 1 to 6 do
    send net 0 1
  done;
  Vsim.Engine.run eng;
  Alcotest.(check int) "two delivered" 2 hits.(1);
  Alcotest.(check int) "four dropped globally" 4
    (E.counters net).E.frames_dropped;
  let uplink =
    List.find
      (fun s -> s.E.ls_label = T.link_label (T.Host 0, T.Edge 0))
      (E.link_stats net)
  in
  Alcotest.(check int) "four dropped at the port" 4 uplink.E.ls_drops;
  Alcotest.(check int) "peak occupancy is the cap" 2 uplink.E.ls_queue_peak;
  Alcotest.(check int) "port drained" 0 uplink.E.ls_queued

let test_multi_hop_latency () =
  let eng, net, _ = make_switched () in
  let arrival = ref nan in
  E.set_handler net 2 (fun _ -> arrival := Vsim.Engine.now eng);
  send net 0 2;
  Vsim.Engine.run eng;
  (* Four store-and-forward hops, each serializing and propagating, plus
     a forwarding charge at each of the three switches on the path. *)
  check_float "cross-edge latency composes per hop"
    ((4.0 *. (tx +. prop)) +. (3.0 *. C.switch_forward_ms))
    !arrival;
  let eng, net, _ = make_switched () in
  let arrival = ref nan in
  E.set_handler net 1 (fun _ -> arrival := Vsim.Engine.now eng);
  send net 0 1;
  Vsim.Engine.run eng;
  check_float "same-edge latency: two hops, one switch"
    ((2.0 *. (tx +. prop)) +. C.switch_forward_ms)
    !arrival

let test_slow_link () =
  let eng, net, _ = make_switched () in
  E.set_link_extra_latency net (T.Edge 0) T.Spine 5.0;
  let arrival = ref nan in
  E.set_handler net 2 (fun _ -> arrival := Vsim.Engine.now eng);
  send net 0 2;
  Vsim.Engine.run eng;
  check_float "slow link adds its latency to the one hop"
    ((4.0 *. (tx +. prop)) +. (3.0 *. C.switch_forward_ms) +. 5.0)
    !arrival

let test_shared_medium_has_no_links () =
  let eng = Vsim.Engine.create () in
  let net = E.create ~config:C.ethernet_3mbit eng in
  Alcotest.(check bool) "no queue bound" true (E.queue_capacity net = None);
  Alcotest.(check (list reject)) "no link stats" [] (E.link_stats net);
  Alcotest.check_raises "set_link_up raises"
    (Invalid_argument "Ethernet.set_link_up: the shared medium has no links")
    (fun () -> E.set_link_up net (T.Host 0) (T.Edge 0) false)

(* --- the switched-fabric oracle --- *)

(* Reference switched fabric: the closure-chain model the flight-record
   path replaced, kept here as its specification. Links live in a table
   keyed by node pair; each hop serializes behind the link's free-at,
   then runs a continuation at the far end; switches compute the
   fan-out from a destination list taken at send time. It keeps the
   same per-link statistics and global counters as {!Ethernet}, draws
   from the same PRNG stream, and records deliveries as
   (time, src, dst). *)
module Ref = struct
  type link = {
    mutable up : bool;
    mutable free_at : float;
    mutable queued : int;
    mutable peak : int;
    mutable frames : int;
    mutable drops : int;
    mutable busy : float;
    mutable extra : float;
  }

  type t = {
    eng : Vsim.Engine.t;
    fan_in : int;
    queue_cap : int;
    hosts : int list;  (* attached, ascending *)
    groups : (int * int list) list;  (* group -> members, ascending *)
    prng : Vsim.Prng.t;
    mutable loss : float;
    links : (T.node * T.node, link) Hashtbl.t;
    counters : E.counters;
    mutable deliveries : (float * int * int) list;  (* newest first *)
  }

  let create ~fan_in ~queue_cap ~hosts ~groups eng =
    {
      eng;
      fan_in;
      queue_cap;
      hosts;
      groups;
      prng = Vsim.Prng.create ~seed:1;
      loss = 0.0;
      links = Hashtbl.create 16;
      counters =
        {
          E.frames_sent = 0;
          frames_delivered = 0;
          frames_dropped = 0;
          bytes_sent = 0;
        };
      deliveries = [];
    }

  let link r key =
    match Hashtbl.find_opt r.links key with
    | Some l -> l
    | None ->
        let l =
          {
            up = true;
            free_at = 0.0;
            queued = 0;
            peak = 0;
            frames = 0;
            drops = 0;
            busy = 0.0;
            extra = 0.0;
          }
        in
        Hashtbl.replace r.links key l;
        l

  let dropped r =
    r.counters.E.frames_dropped <- r.counters.E.frames_dropped + 1

  let deliver r src a =
    if List.mem a r.hosts then begin
      r.counters.E.frames_delivered <- r.counters.E.frames_delivered + 1;
      r.deliveries <- (Vsim.Engine.now r.eng, src, a) :: r.deliveries
    end
    else dropped r

  let hop r bytes key ~at k =
    let l = link r key in
    if (not l.up) || l.queued >= r.queue_cap then begin
      l.drops <- l.drops + 1;
      dropped r
    end
    else begin
      l.queued <- l.queued + 1;
      if l.queued > l.peak then l.peak <- l.queued;
      let start = Float.max at l.free_at in
      let duration = C.transmission_ms C.ethernet_3mbit ~payload_bytes:bytes in
      l.free_at <- start +. duration;
      l.busy <- l.busy +. duration;
      l.frames <- l.frames + 1;
      let arrival = start +. duration +. prop +. l.extra in
      Vsim.Engine.schedule_at r.eng arrival (fun () ->
          l.queued <- l.queued - 1;
          k arrival)
    end

  let transmit r src dst bytes =
    r.counters.E.frames_sent <- r.counters.E.frames_sent + 1;
    r.counters.E.bytes_sent <-
      r.counters.E.bytes_sent + C.ethernet_3mbit.C.header_bytes + bytes;
    let fan_in = r.fan_in in
    let dests =
      List.filter (fun a -> a <> src)
        (match dst with
        | E.Unicast a -> [ a ]
        | E.Broadcast -> r.hosts
        | E.Multicast g -> (
            match List.assoc_opt g r.groups with Some m -> m | None -> []))
    in
    let fwd = C.switch_forward_ms in
    let src_edge = T.edge_of ~fan_in src in
    let hop = hop r bytes in
    hop (T.Host src, T.Edge src_edge) ~at:(Vsim.Engine.now r.eng) (fun at ->
        let lost = r.loss > 0.0 && Vsim.Prng.float r.prng < r.loss in
        if lost then dropped r
        else begin
          let at = at +. fwd in
          let local, remote =
            List.partition (fun a -> T.edge_of ~fan_in a = src_edge) dests
          in
          List.iter
            (fun a ->
              hop (T.Edge src_edge, T.Host a) ~at (fun _ -> deliver r src a))
            local;
          if remote <> [] then
            hop (T.Edge src_edge, T.Spine) ~at (fun at ->
                let at = at +. fwd in
                let edges =
                  List.sort_uniq compare (List.map (T.edge_of ~fan_in) remote)
                in
                List.iter
                  (fun eb ->
                    hop (T.Spine, T.Edge eb) ~at (fun at ->
                        let at = at +. fwd in
                        List.iter
                          (fun a ->
                            if T.edge_of ~fan_in a = eb then
                              hop (T.Edge eb, T.Host a) ~at (fun _ ->
                                  deliver r src a))
                          remote))
                  edges)
        end)

  let link_stats r =
    Hashtbl.fold
      (fun key l acc ->
        {
          E.ls_label = T.link_label key;
          ls_up = l.up;
          ls_frames = l.frames;
          ls_drops = l.drops;
          ls_queued = l.queued;
          ls_queue_peak = l.peak;
          ls_busy_ms = l.busy;
          ls_extra_ms = l.extra;
        }
        :: acc)
      r.links []
    |> List.sort (fun a b -> compare a.E.ls_label b.E.ls_label)
end

type fabric_event =
  | Send of int * E.dest * int  (* src, destination, payload bytes *)
  | Link_up of (T.node * T.node) * bool
  | Link_slow of (T.node * T.node) * float

type fabric_case = {
  fc_fan_in : int;
  fc_hosts : int;  (* attached: 0 .. hosts-1; address [hosts] is not *)
  fc_queue_cap : int;
  fc_loss : float;
  fc_events : (int * fabric_event) list;  (* at integer ms, in order *)
}

let fabric_links ~fan_in ~hosts =
  let edges = List.init ((hosts / fan_in) + 1) Fun.id in
  List.concat_map
    (fun h ->
      let e = T.edge_of ~fan_in h in
      [ (T.Host h, T.Edge e); (T.Edge e, T.Host h) ])
    (List.init (hosts + 1) Fun.id)
  @ List.concat_map
      (fun e -> [ (T.Edge e, T.Spine); (T.Spine, T.Edge e) ])
      edges

(* Members of multicast groups 0 and 1; group 2 has none. *)
let fabric_groups hosts =
  [
    (0, List.filter (fun a -> a mod 2 = 0) (List.init hosts Fun.id));
    (1, List.filter (fun a -> a mod 3 <> 1) (List.init hosts Fun.id));
  ]

let gen_fabric_case =
  let open QCheck.Gen in
  let* fc_fan_in = int_range 1 4 in
  let* fc_hosts = int_range 2 9 in
  let* fc_queue_cap = int_range 1 4 in
  let* fc_loss = oneofl [ 0.0; 0.0; 0.25 ] in
  let links = Array.of_list (fabric_links ~fan_in:fc_fan_in ~hosts:fc_hosts) in
  let send =
    let* src = int_range 0 (fc_hosts - 1) in
    let* dst =
      frequency
        [
          (6, map (fun a -> E.Unicast a) (int_range 0 fc_hosts));
          (1, return (E.Unicast src));
          (2, return E.Broadcast);
          (2, map (fun g -> E.Multicast g) (int_range 0 2));
        ]
    in
    let* bytes = int_range 1 600 in
    return (Send (src, dst, bytes))
  in
  let fault =
    let* l = map (fun i -> links.(i)) (int_range 0 (Array.length links - 1)) in
    oneof
      [
        map (fun up -> Link_up (l, up)) bool;
        map (fun ms -> Link_slow (l, float_of_int ms *. 0.5)) (int_range 0 6);
      ]
  in
  let* fc_events =
    list_size (int_range 1 60)
      (pair (int_range 0 40) (frequency [ (5, send); (1, fault) ]))
  in
  let fc_events =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) fc_events
  in
  return { fc_fan_in; fc_hosts; fc_queue_cap; fc_loss; fc_events }

let print_fabric_case c =
  let pp_dst ppf = function
    | E.Unicast a -> Fmt.pf ppf "host%d" a
    | E.Broadcast -> Fmt.string ppf "broadcast"
    | E.Multicast g -> Fmt.pf ppf "group%d" g
  in
  let pp_ev ppf = function
    | Send (src, dst, bytes) ->
        Fmt.pf ppf "send %d -> %a %dB" src pp_dst dst bytes
    | Link_up (l, up) ->
        Fmt.pf ppf "%a %s" T.pp_link l (if up then "up" else "down")
    | Link_slow (l, ms) -> Fmt.pf ppf "%a +%.1fms" T.pp_link l ms
  in
  Fmt.str "fan_in %d, %d hosts, queue_cap %d, loss %.2f:@ %a" c.fc_fan_in
    c.fc_hosts c.fc_queue_cap c.fc_loss
    Fmt.(list ~sep:semi (pair ~sep:(any "ms ") int pp_ev))
    c.fc_events

let run_fabric c =
  let eng = Vsim.Engine.create () in
  let net =
    E.create ~config:C.ethernet_3mbit ~topology:(T.switched ~fan_in:c.fc_fan_in)
      ~queue_cap:c.fc_queue_cap eng
  in
  let deliveries = ref [] in
  for a = 0 to c.fc_hosts - 1 do
    E.attach net a (fun frame ->
        deliveries := (Vsim.Engine.now eng, frame.E.src, a) :: !deliveries)
  done;
  List.iter
    (fun (g, members) ->
      List.iter (fun addr -> E.join_group net ~group:g ~addr) members)
    (fabric_groups c.fc_hosts);
  E.set_loss_probability net c.fc_loss;
  List.iter
    (fun (at, ev) ->
      Vsim.Engine.schedule_at eng (float_of_int at) (fun () ->
          match ev with
          | Send (src, dst, bytes) ->
              E.transmit net { E.src; dst; payload = (); payload_bytes = bytes }
          | Link_up ((a, b), up) -> E.set_link_up net a b up
          | Link_slow ((a, b), ms) -> E.set_link_extra_latency net a b ms))
    c.fc_events;
  Vsim.Engine.run eng;
  (List.rev !deliveries, E.counters net, E.link_stats net)

let run_reference c =
  let eng = Vsim.Engine.create () in
  let r =
    Ref.create ~fan_in:c.fc_fan_in ~queue_cap:c.fc_queue_cap
      ~hosts:(List.init c.fc_hosts Fun.id) ~groups:(fabric_groups c.fc_hosts)
      eng
  in
  r.Ref.loss <- c.fc_loss;
  List.iter
    (fun (at, ev) ->
      Vsim.Engine.schedule_at eng (float_of_int at) (fun () ->
          match ev with
          | Send (src, dst, bytes) -> Ref.transmit r src dst bytes
          | Link_up (key, up) -> (Ref.link r key).Ref.up <- up
          | Link_slow (key, ms) -> (Ref.link r key).Ref.extra <- ms))
    c.fc_events;
  Vsim.Engine.run eng;
  (List.rev r.Ref.deliveries, r.Ref.counters, Ref.link_stats r)

let prop_switched_matches_reference =
  QCheck.Test.make ~name:"switched fabric matches the closure-chain reference"
    ~count:300
    (QCheck.make ~print:print_fabric_case gen_fabric_case)
    (fun c ->
      let got_d, got_c, got_l = run_fabric c in
      let exp_d, exp_c, exp_l = run_reference c in
      let pp_d ppf (t, s, d) = Fmt.pf ppf "%h:%d->%d" t s d in
      if got_d <> exp_d then
        QCheck.Test.fail_reportf "deliveries differ:@ got %a@ expected %a"
          Fmt.(Dump.list pp_d) got_d Fmt.(Dump.list pp_d) exp_d;
      if got_c <> exp_c then
        QCheck.Test.fail_reportf
          "counters differ: got sent %d delivered %d dropped %d bytes %d, \
           expected %d %d %d %d"
          got_c.E.frames_sent got_c.E.frames_delivered got_c.E.frames_dropped
          got_c.E.bytes_sent exp_c.E.frames_sent exp_c.E.frames_delivered
          exp_c.E.frames_dropped exp_c.E.bytes_sent;
      if got_l <> exp_l then
        QCheck.Test.fail_reportf "link_stats differ:@ got %s@ expected %s"
          (String.concat ", " (List.map (fun s -> s.E.ls_label) got_l))
          (String.concat ", " (List.map (fun s -> s.E.ls_label) exp_l));
      true)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "net.fabric",
      [
        Alcotest.test_case "topology paths" `Quick test_topology_paths;
        Alcotest.test_case "node strings" `Quick test_node_string_round_trip;
        qcheck prop_shared_matches_single_wire;
        qcheck prop_switched_matches_reference;
        Alcotest.test_case "link cut and heal" `Quick test_link_cut;
        Alcotest.test_case "queue-full drops" `Quick test_queue_full_drops;
        Alcotest.test_case "multi-hop latency" `Quick test_multi_hop_latency;
        Alcotest.test_case "slow link" `Quick test_slow_link;
        Alcotest.test_case "shared medium has no links" `Quick
          test_shared_medium_has_no_links;
      ] );
  ]
