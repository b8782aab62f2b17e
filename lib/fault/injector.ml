(* Apply a fault plan to a live scenario.

   [install] schedules every plan event on the scenario's engine. The
   applied actions are recorded (simulated time + rendering) in an
   ordered timeline — the replay-identity artifact E9 compares across
   runs — and counted under ("fault", "injector", kind) when metrics
   are attached. Events that no longer make sense when their time
   arrives (crash of an already-down host, restart of an up one) are
   recorded as skipped rather than applied, so overlapping episodes
   from a generated plan compose safely. *)

module Kernel = Vkernel.Kernel
module Ethernet = Vnet.Ethernet
module Scenario = Vworkload.Scenario

type t = {
  scenario : Scenario.t;
  plan : Plan.t;
  on_restart : Ethernet.addr -> unit;
  on_heal : Ethernet.addr -> Ethernet.addr -> unit;
  mutable applied : (float * string) list;  (* newest first *)
  mutable applied_actions : (float * Plan.action) list;  (* newest first *)
  mutable skipped : int;
}

let timeline t = List.rev t.applied
let skipped t = t.skipped
let plan t = t.plan

(* Every timeline entry — applied or skipped — also lands in the
   scenario hub's flight recorder (one boolean test when the recorder
   is off), so a dump shows the injected faults inline with the kernel
   and network events they caused. *)
let record inj label =
  let now = Vsim.Engine.now (Scenario.(inj.scenario.engine)) in
  inj.applied <- (now, label) :: inj.applied;
  Vobs.Hub.eventf
    (Some Scenario.(inj.scenario.obs))
    ~at:now ~cat:Vobs.Eventlog.Fault ~host:"injector" ~trace:0 "%s" label

(* An applied (not skipped) action, kept structured for attribution. *)
let applied inj (e : Plan.event) =
  let now = Vsim.Engine.now (Scenario.(inj.scenario.engine)) in
  inj.applied_actions <- (now, e.Plan.action) :: inj.applied_actions;
  record inj (Fmt.str "%a" Plan.pp_action e.Plan.action)

let metric inj kind =
  Vobs.Hub.count
    (Some Scenario.(inj.scenario.obs))
    ~host:"fault" ~server:"injector" ~op:kind

let skip inj (e : Plan.event) reason =
  inj.skipped <- inj.skipped + 1;
  record inj (Fmt.str "skip (%s): %a" reason Plan.pp_action e.Plan.action)

let apply inj (e : Plan.event) =
  let s = inj.scenario in
  let host addr = Kernel.host_of_addr Scenario.(s.domain) addr in
  match e.Plan.action with
  | Plan.Crash addr -> (
      match host addr with
      | Some h when Kernel.host_is_up h ->
          Kernel.crash_host h;
          metric inj "crash";
          applied inj e
      | Some _ -> skip inj e "already down"
      | None -> skip inj e "unknown host")
  | Plan.Restart addr -> (
      match host addr with
      | Some h when not (Kernel.host_is_up h) ->
          Kernel.restart_host h;
          metric inj "restart";
          applied inj e;
          (* Revive services: the host is up but empty; the hook reboots
             whatever should live there (e.g. File_server.restart_from),
             which re-registers services for logical re-resolution. *)
          inj.on_restart addr
      | Some _ -> skip inj e "already up"
      | None -> skip inj e "unknown host")
  | Plan.Partition (a, b) ->
      Ethernet.partition Scenario.(s.net) a b;
      metric inj "partition";
      applied inj e
  | Plan.Heal (a, b) ->
      Ethernet.heal Scenario.(s.net) a b;
      metric inj "heal";
      applied inj e;
      (* Reconverge replicated state: a member partitioned from its
         write coordinator missed fan-outs; the hook replays the group
         write log (e.g. Replica.sync) now that frames flow again. *)
      inj.on_heal a b
  | Plan.Loss p ->
      Ethernet.set_loss_probability Scenario.(s.net) p;
      metric inj "loss";
      applied inj e
  | Plan.Slow (addr, ms) ->
      Ethernet.set_extra_latency Scenario.(s.net) addr ms;
      metric inj "slow";
      applied inj e
  (* Link actions only make sense on a switched fabric; a plan carrying
     them against a shared medium records skips instead of raising. *)
  | Plan.Link_cut (a, b) -> (
      let net = Scenario.(s.net) in
      let topo = Ethernet.topology net in
      match topo with
      | Vnet.Topology.Shared_medium -> skip inj e "shared medium"
      | Vnet.Topology.Switched _ when not (Vnet.Topology.is_link topo (a, b))
        ->
          skip inj e "not a link"
      | Vnet.Topology.Switched _ when not (Ethernet.link_up net a b) ->
          skip inj e "already cut"
      | Vnet.Topology.Switched _ ->
          Ethernet.set_link_up net a b false;
          metric inj "link-cut";
          applied inj e)
  | Plan.Link_heal (a, b) -> (
      let net = Scenario.(s.net) in
      let topo = Ethernet.topology net in
      match topo with
      | Vnet.Topology.Shared_medium -> skip inj e "shared medium"
      | Vnet.Topology.Switched _ when not (Vnet.Topology.is_link topo (a, b))
        ->
          skip inj e "not a link"
      | Vnet.Topology.Switched _ when Ethernet.link_up net a b ->
          skip inj e "already up"
      | Vnet.Topology.Switched _ ->
          Ethernet.set_link_up net a b true;
          metric inj "link-heal";
          applied inj e)
  | Plan.Link_slow ((a, b), ms) -> (
      let net = Scenario.(s.net) in
      let topo = Ethernet.topology net in
      match topo with
      | Vnet.Topology.Shared_medium -> skip inj e "shared medium"
      | Vnet.Topology.Switched _ when not (Vnet.Topology.is_link topo (a, b))
        ->
          skip inj e "not a link"
      | Vnet.Topology.Switched _ ->
          Ethernet.set_link_extra_latency net a b ms;
          metric inj "link-slow";
          applied inj e)

let install ?(on_restart = fun (_ : Ethernet.addr) -> ())
    ?(on_heal = fun (_ : Ethernet.addr) (_ : Ethernet.addr) -> ()) scenario plan
    =
  let inj =
    {
      scenario;
      plan;
      on_restart;
      on_heal;
      applied = [];
      applied_actions = [];
      skipped = 0;
    }
  in
  List.iter
    (fun (e : Plan.event) ->
      Vsim.Engine.schedule_at
        Scenario.(scenario.engine)
        e.Plan.at
        (fun () -> apply inj e))
    plan.Plan.events;
  inj

(* Render the applied actions down to attribution fault windows: each
   applied fault runs until the applied action that recovers it — the
   restart of the crashed host, the heal of the same (unordered)
   partition pair, the next loss-rate change, the next latency change
   on the same host — or until [horizon_ms] for a fault never
   recovered. Skipped events injected nothing and so attribute
   nothing. *)
let attribution_faults inj ~horizon_ms =
  let applied = List.rev inj.applied_actions in
  let norm (a, b) = if a < b then (a, b) else (b, a) in
  let kind_of = function
    | Plan.Crash _ -> Some "crash"
    | Plan.Partition _ -> Some "partition"
    | Plan.Loss p when p > 0.0 -> Some "loss"
    | Plan.Slow (_, ms) when ms > 0.0 -> Some "slow"
    | Plan.Link_cut _ -> Some "link-cut"
    | Plan.Link_slow (_, ms) when ms > 0.0 -> Some "link-slow"
    | Plan.Restart _ | Plan.Heal _ | Plan.Loss _ | Plan.Slow _
    | Plan.Link_heal _ | Plan.Link_slow _ ->
        None
  in
  let recovers fault cand =
    match (fault, cand) with
    | Plan.Crash x, Plan.Restart y -> x = y
    | Plan.Partition (a, b), Plan.Heal (c, d) -> norm (a, b) = norm (c, d)
    | Plan.Loss _, Plan.Loss _ -> true
    | Plan.Slow (x, _), Plan.Slow (y, _) -> x = y
    | Plan.Link_cut l, Plan.Link_heal l' -> l = l'
    | Plan.Link_slow (l, _), Plan.Link_slow (l', _) -> l = l'
    | _ -> false
  in
  List.filter_map
    (fun (at, action) ->
      match kind_of action with
      | None -> None
      | Some kind ->
          let until =
            List.fold_left
              (fun acc (t, a) ->
                match acc with
                | Some _ -> acc
                | None when t > at && recovers action a -> Some t
                | None -> None)
              None applied
            |> Option.value ~default:horizon_ms
          in
          Some
            {
              Vobs.Attribution.at;
              until;
              kind;
              label = Fmt.str "%a" Plan.pp_action action;
            })
    applied

let pp ppf t =
  Fmt.pf ppf "@[<v>injector: %d applied, %d skipped (plan seed %d)@,%a@]"
    (List.length t.applied - t.skipped)
    t.skipped t.plan.Plan.seed
    Fmt.(
      list ~sep:cut (fun ppf (at, label) -> pf ppf "t=%.0f %s" at label))
    (timeline t)
