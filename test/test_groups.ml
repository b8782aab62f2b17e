(* Model tests for the kernel's replicated-service state: the capped
   group write log against the list implementation it replaced, and
   the per-group member index against a scan of every host. *)

module K = Vkernel.Kernel
module Pid = Vkernel.Pid
module E = Vnet.Ethernet

let cost = { K.payload_bytes = String.length; K.segment_bytes = (fun _ -> 0) }

let make_domain () =
  let eng = Vsim.Engine.create () in
  let net = E.create ~config:Vnet.Calibration.ethernet_3mbit eng in
  (net, K.create_domain ~cost eng net)

(* --- the write log against its list model --- *)

(* The kernel's write log as a list, newest first: the oracle. Past the
   cap, the entries beyond the newest 1024 are examined; the committed
   ones drop, raising their origin's trim mark, and the pending ones
   stay at the tail. *)
module Oracle = struct
  type entry = {
    origin : int;
    seq : int;
    msg : string;
    mutable committed : bool;
  }

  type t = {
    mutable log : entry list;
    mutable len : int;
    trim_hw : (int, int) Hashtbl.t;
  }

  let cap = 1024
  let create () = { log = []; len = 0; trim_hw = Hashtbl.create 4 }

  let trim t =
    if t.len > cap then begin
      let rec split n = function
        | [] -> ([], [])
        | e :: rest ->
            if n = 0 then ([], e :: rest)
            else
              let kept, dropped = split (n - 1) rest in
              (e :: kept, dropped)
      in
      let kept, dropped = split cap t.log in
      let stragglers = List.filter (fun e -> not e.committed) dropped in
      List.iter
        (fun e ->
          if e.committed then
            let prev =
              match Hashtbl.find_opt t.trim_hw e.origin with
              | Some s -> s
              | None -> 0
            in
            Hashtbl.replace t.trim_hw e.origin (max prev e.seq))
        dropped;
      t.log <- kept @ stragglers;
      t.len <- List.length t.log
    end

  let append t ~origin ~seq msg =
    t.log <- { origin; seq; msg; committed = false } :: t.log;
    t.len <- t.len + 1;
    trim t

  let commit t ~origin ~seq =
    List.iter
      (fun e -> if e.origin = origin && e.seq = seq then e.committed <- true)
      t.log

  let abort t ~origin ~seq =
    t.log <-
      List.filter
        (fun e -> not (e.origin = origin && e.seq = seq && not e.committed))
        t.log;
    t.len <- List.length t.log

  let committed t =
    List.rev
      (List.filter_map
         (fun e -> if e.committed then Some (e.origin, e.seq, e.msg) else None)
         t.log)

  let pending t = List.filter (fun e -> not e.committed) t.log

  let trimmed t =
    Hashtbl.fold (fun origin seq acc -> (origin, seq) :: acc) t.trim_hw []
    |> List.sort compare
end

(* One step of a coordinator population: append under an origin, or
   commit / abort the pending entry picked by the index (modulo the
   number pending); [Redo] commits or aborts an entry already committed,
   which must change nothing. *)
type op = Append of int | Commit of int | Abort of int | Redo of int

let pp_op ppf = function
  | Append o -> Fmt.pf ppf "append %d" o
  | Commit i -> Fmt.pf ppf "commit #%d" i
  | Abort i -> Fmt.pf ppf "abort #%d" i
  | Redo i -> Fmt.pf ppf "redo #%d" i

let origins = 4

(* Long enough to pass the cap a few times over. Commits mostly pick
   one of the newest pending entries and slightly trail appends, so
   some entries stay pending long enough to age into the trimmed
   region, where later commits and aborts (which pick uniformly) reach
   them. *)
let gen_ops =
  let newest = QCheck.Gen.(frequency [ (9, int_bound 2); (1, nat) ]) in
  QCheck.Gen.(
    int_range 2500 4000 >>= fun n ->
    list_repeat n
      (frequency
         [
           (50, map (fun o -> Append o) (int_bound (origins - 1)));
           (44, map (fun i -> Commit i) newest);
           (4, map (fun i -> Abort i) nat);
           (2, map (fun i -> Redo i) nat);
         ]))

let prop_write_log_matches_model =
  QCheck.Test.make ~name:"group write log matches the list model" ~count:10
    (QCheck.make
       ~print:(fun ops -> Fmt.str "%d ops" (List.length ops))
       gen_ops)
    (fun ops ->
      let _net, d = make_domain () in
      let service = 77 in
      K.register_service_group d ~service ~group:(K.create_group d)
        Vkernel.Balancer.Round_robin;
      let model = Oracle.create () in
      (* Each origin numbers its writes like a coordinator: the next
         seq, rewound when the newest one is aborted. *)
      let next_seq = Array.make origins 1 in
      let nth_pending i =
        match Oracle.pending model with
        | [] -> None
        | l -> Some (List.nth l (i mod List.length l))
      in
      let apply = function
        | Append origin ->
            let seq = next_seq.(origin) in
            next_seq.(origin) <- seq + 1;
            let msg = Fmt.str "w%d.%d" origin seq in
            K.log_group_write d ~service ~origin ~seq msg;
            Oracle.append model ~origin ~seq msg
        | Commit i -> (
            match nth_pending i with
            | None -> ()
            | Some { Oracle.origin; seq; _ } ->
                K.commit_group_write d ~service ~origin ~seq;
                Oracle.commit model ~origin ~seq)
        | Abort i -> (
            match nth_pending i with
            | None -> ()
            | Some { Oracle.origin; seq; _ } ->
                K.abort_group_write d ~service ~origin ~seq;
                Oracle.abort model ~origin ~seq;
                if next_seq.(origin) = seq + 1 then next_seq.(origin) <- seq)
        | Redo i -> (
            match Oracle.committed model with
            | [] -> ()
            | l ->
                let origin, seq, _ = List.nth l (i mod List.length l) in
                K.commit_group_write d ~service ~origin ~seq;
                K.abort_group_write d ~service ~origin ~seq)
      in
      List.iteri
        (fun step op ->
          apply op;
          let log = K.group_write_log d ~service in
          let positions = List.map (fun (pos, _, _, _) -> pos) log in
          let fail what =
            QCheck.Test.fail_reportf "step %d (%a): %s differs" step pp_op op
              what
          in
          let entries = List.map (fun (_, o, s, m) -> (o, s, m)) log in
          if entries <> Oracle.committed model then fail "group_write_log";
          if positions <> List.sort_uniq compare positions then
            fail "position order";
          if K.group_write_pending d ~service <> (Oracle.pending model <> [])
          then fail "group_write_pending";
          if K.group_write_trimmed d ~service <> Oracle.trimmed model then
            fail "group_write_trimmed")
        ops;
      true)

(* --- the member index against a scan of every host --- *)

type mop =
  | Join of int * int * int  (* host, process slot, group *)
  | Leave of int * int * int
  | Crash of int
  | Restart of int
  | Partition of int * int
  | Heal of int * int
  | Destroy of int * int

let pp_mop ppf = function
  | Join (h, p, g) -> Fmt.pf ppf "join h%d.p%d g%d" h p g
  | Leave (h, p, g) -> Fmt.pf ppf "leave h%d.p%d g%d" h p g
  | Crash h -> Fmt.pf ppf "crash h%d" h
  | Restart h -> Fmt.pf ppf "restart h%d" h
  | Partition (a, b) -> Fmt.pf ppf "partition h%d h%d" a b
  | Heal (a, b) -> Fmt.pf ppf "heal h%d h%d" a b
  | Destroy (h, p) -> Fmt.pf ppf "destroy h%d.p%d" h p

let n_hosts = 6
let n_slots = 3
let n_groups = 2

let gen_mops =
  let host = QCheck.Gen.int_bound (n_hosts - 1) in
  let slot = QCheck.Gen.int_bound (n_slots - 1) in
  let group = QCheck.Gen.int_bound (n_groups - 1) in
  QCheck.Gen.(
    list_size (int_range 20 120)
      (frequency
         [
           (10, map3 (fun h p g -> Join (h, p, g)) host slot group);
           (4, map3 (fun h p g -> Leave (h, p, g)) host slot group);
           (2, map (fun h -> Crash h) host);
           (3, map (fun h -> Restart h) host);
           (2, map2 (fun a b -> Partition (a, b)) host host);
           (2, map2 (fun a b -> Heal (a, b)) host host);
           (2, map2 (fun h p -> Destroy (h, p)) host slot);
         ]))

let prop_member_index_matches_scan =
  QCheck.Test.make ~name:"group member index matches a scan of every host"
    ~count:200
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(list ~sep:semi pp_mop))
       gen_mops)
    (fun mops ->
      let net, d = make_domain () in
      let addr h = h + 1 in
      let hosts =
        Array.init n_hosts (fun h ->
            K.boot_host d ~name:(Fmt.str "h%d" h) (addr h))
      in
      let groups = Array.init n_groups (fun _ -> K.create_group d) in
      let service g = 100 + g in
      Array.iteri
        (fun g group ->
          K.register_service_group d ~service:(service g) ~group
            Vkernel.Balancer.Round_robin)
        groups;
      let idle self = ignore (K.receive self : string * Pid.t) in
      let spawn_slots h =
        Array.init n_slots (fun _ -> K.spawn hosts.(h) ~name:"member" idle)
      in
      let slots = Array.init n_hosts spawn_slots in
      (* What each host has joined, mirrored here: (host, group) -> pids,
         newest first, cleared when the host crashes. *)
      let joined = Hashtbl.create 16 in
      let joined_on h g =
        Option.value ~default:[] (Hashtbl.find_opt joined (h, g))
      in
      let apply = function
        | Join (h, p, g) ->
            let pid = slots.(h).(p) in
            K.join_group hosts.(h) ~group:groups.(g) pid;
            if not (List.exists (Pid.equal pid) (joined_on h g)) then
              Hashtbl.replace joined (h, g) (pid :: joined_on h g)
        | Leave (h, p, g) ->
            let pid = slots.(h).(p) in
            K.leave_group hosts.(h) ~group:groups.(g) pid;
            Hashtbl.replace joined (h, g)
              (List.filter (fun q -> not (Pid.equal q pid)) (joined_on h g))
        | Crash h ->
            if K.host_is_up hosts.(h) then begin
              K.crash_host hosts.(h);
              for g = 0 to n_groups - 1 do
                Hashtbl.remove joined (h, g)
              done
            end
        | Restart h ->
            if not (K.host_is_up hosts.(h)) then begin
              K.restart_host hosts.(h);
              slots.(h) <- spawn_slots h
            end
        | Partition (a, b) -> if a <> b then E.partition net (addr a) (addr b)
        | Heal (a, b) -> if a <> b then E.heal net (addr a) (addr b)
        | Destroy (h, p) -> ignore (K.destroy_process d slots.(h).(p) : bool)
      in
      (* The scan the index replaced: every host, up and reachable, with
         each joined process alive, sorted by (address, local pid). *)
      let scan ~requester g =
        let found = ref [] in
        Array.iteri
          (fun h host ->
            if K.host_is_up host && E.reachable net requester (addr h) then
              List.iter
                (fun pid ->
                  if K.alive d pid then found := (pid, addr h) :: !found)
                (joined_on h g))
          hosts;
        List.sort
          (fun (p1, a1) (p2, a2) ->
            compare (a1, Pid.local_pid p1) (a2, Pid.local_pid p2))
          !found
        |> List.map fst
      in
      List.iteri
        (fun step op ->
          apply op;
          for r = 0 to n_hosts - 1 do
            for g = 0 to n_groups - 1 do
              let requester = addr r in
              let got =
                K.service_group_members d ~requester ~service:(service g)
              in
              if not (List.equal Pid.equal got (scan ~requester g)) then
                QCheck.Test.fail_reportf
                  "step %d (%a): members of g%d seen from h%d differ" step
                  pp_mop op g r
            done
          done)
        mops;
      true)

let suite =
  [
    ( "groups",
      [
        QCheck_alcotest.to_alcotest prop_write_log_matches_model;
        QCheck_alcotest.to_alcotest prop_member_index_matches_scan;
      ] );
  ]
