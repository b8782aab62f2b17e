(* The distributed V kernel (paper §3, §4).

   One [domain] is a set of logical hosts on one simulated Ethernet,
   over which the IPC primitives are transparent. Each simulated V
   process is a [Vsim.Proc] fiber; Send blocks the fiber until the
   Reply arrives, exactly mirroring the paper's message-transaction
   semantics (Figure 1), including Forward, MoveTo/MoveFrom bulk
   transfer, SetPid/GetPid service naming with broadcast lookup, and
   process groups with multicast Send.

   The kernel is parametric in the message type ['m]: it never inspects
   messages, only charges wire/CPU costs through a caller-supplied
   {!cost_model} — the same separation the real kernel has from the
   message standards built above it (§3.2). *)

module Calibration = Vnet.Calibration
module Ethernet = Vnet.Ethernet
module Topology = Vnet.Topology
module Engine = Vsim.Engine
module Proc = Vsim.Proc

type error =
  | Timeout  (** retransmission budget exhausted; destination unreachable *)
  | Nonexistent_process  (** the pid names no live process *)
  | Not_awaiting_reply  (** Reply/Forward/Move for a process we are not serving *)
  | Bad_buffer  (** Move beyond the buffer the sender exposed *)
  | No_reply  (** group Send that no member answered *)

let pp_error ppf = function
  | Timeout -> Fmt.string ppf "timeout"
  | Nonexistent_process -> Fmt.string ppf "nonexistent process"
  | Not_awaiting_reply -> Fmt.string ppf "not awaiting reply"
  | Bad_buffer -> Fmt.string ppf "bad buffer"
  | No_reply -> Fmt.string ppf "no reply"

exception Ipc_error of error

type 'm cost_model = {
  payload_bytes : 'm -> int;
      (* bytes carried beyond the 32-byte message proper *)
  segment_bytes : 'm -> int;
      (* portion of the payload that must be copied into the receiver
         (e.g. an appended CSname); charges segment-copy CPU remotely *)
}

(* --- wire packets between kernels --- *)

type 'm packet =
  | Request of { txn : int; sender : Pid.t; target : Pid.t; msg : 'm }
  | Reply_pkt of { txn : int; replier : Pid.t; msg : 'm }
  | Nack of { txn : int; reason : error }
  | Getpid_query of { txn : int; requester_addr : int; service : int }
  | Getpid_reply of { txn : int; pid : Pid.t }
  | Move_request of { txn : int; mv : int; mover_addr : int; len : int }
  | Move_data of { mv : int; last : bool; data : bytes }
  | Move_to_data of { txn : int; mv : int; mover_addr : int; seq : int; last : bool; data : bytes }
  | Move_ack of { mv : int; outcome : (unit, error) result }
  | Group_request of { txn : int; sender : Pid.t; group : int; msg : 'm }

type 'm delivery = { d_sender : Pid.t; d_msg : 'm }

(* What a per-process admission hook decided about an incoming request.
   The kernel supplies the mechanism (bounded queues, priority lanes, a
   kernel-level rejection reply); the policy — caps, deadline-aware
   drop, retry-after hints — lives above, in the layer that understands
   the message type (see [Vservices.Admission]). *)
type 'm admission_verdict =
  | Admit  (** enqueue on the interactive lane *)
  | Admit_bulk  (** enqueue on the bulk lane, served after interactive *)
  | Shed of 'm
      (** reject now: the kernel replies with this message on the
          server's behalf, without scheduling the server's fiber *)

type 'm process = {
  pid : Pid.t;
  proc_name : string;
  proc_host : 'm host;
  queue : 'm delivery Queue.t;
  mutable recv_waiter :
    (('m delivery, exn) result -> unit) option;
  mutable recv_filter : (Pid.t -> bool) option;
  mutable abort : (exn -> unit) option;
  mutable proc_alive : bool;
  (* Overload protection, off ([None]) by default: with no hook
     installed the request path costs exactly one extra word test. *)
  mutable admission : 'm admission option;
}

and 'm admission = {
  mutable ad_decide : now:float -> depth:int -> 'm -> 'm admission_verdict;
  (* The bulk lane: requests classified [Admit_bulk] wait here and are
     dequeued only when the interactive queue is empty, so cheap
     resolution traffic overtakes queued bulk work. *)
  ad_bulk : 'm delivery Queue.t;
  mutable ad_admitted : int;
  mutable ad_shed : int;
}

and 'm pending = {
  p_fire : ('m * Pid.t, exn) result -> unit;
  p_buffer : bytes option;
  (* Handles on the transaction's retransmission and timeout timers, so
     completion cancels them in O(1) instead of leaving no-op events to
     percolate through the queue (the common case: every successful
     remote SRR arms both and needs neither). *)
  mutable p_retransmit : Engine.timer option;
  mutable p_timeout : Engine.timer option;
}

and 'm move_op = {
  mv_fire : (bytes, exn) result -> unit;
  mv_buf : Buffer.t;
  mutable mv_timer : Engine.timer option;
}

and 'm host = {
  domain : 'm domain;
  addr : Ethernet.addr;
  host_name : string;
  mutable logical_host : int;
  mutable host_up : bool;
  processes : (int, 'm process) Hashtbl.t; (* by local pid *)
  services : (int, (Pid.t * Service.scope) list) Hashtbl.t;
  serving : (Pid.t * Pid.t, int) Hashtbl.t;
      (* (sender, receiver) -> txn being served by receiver *)
  pendings : (int, 'm pending) Hashtbl.t; (* txn -> blocked local sender *)
  moves : (int, 'm move_op) Hashtbl.t;
  getpid_waits : (int, Pid.t option -> unit) Hashtbl.t;
  (* Optional service -> pid cache for broadcast GetPid results, shared
     by the host's processes (the prefix server's logical bindings are
     the intended user). Gated by [getpid_cache_on]; entries are
     validated on use — a failed send/forward to a cached pid is the
     invalidation signal (see [drop_cached_pid]). *)
  getpid_cache : (int, Pid.t) Hashtbl.t;
  (* At-most-once machinery for retransmitted requests: transactions
     already delivered to a process here, and cached replies to replay
     when the reply frame itself was lost. *)
  delivered_txns : (int, unit) Hashtbl.t;
  completed_replies : (int, Ethernet.addr * 'm packet * int) Hashtbl.t;
  group_members : (int, Pid.t list) Hashtbl.t;
  host_prng : Vsim.Prng.t;
  (* The per-transaction IPC counters, in [ipc_ops] order: one array
     add per send/receive/reply and admission verdict, hub or not;
     [flush_metrics] moves them into the registry at scrape time. *)
  ipc_counts : Vobs.Deferred.t;
}

(* A logical service implemented by a whole process group (§7): GetPid
   for the service returns one member, chosen by the balancer; naming
   writes are fanned out write-all by the coordinating prefix server and
   logged here so a member that missed some (it was down, or partitioned
   away) can catch up by replay. The kernel never inspects the logged
   messages, only stores them — the same separation it keeps everywhere
   else.

   An entry is PENDING from the moment the coordinator starts its
   fan-out and becomes COMMITTED once some member may have applied it
   (a member answered, or a send failed ambiguously — the request may
   have been delivered with the reply frame lost). A fan-out that fails
   definitively everywhere is ABORTED: the entry is removed before any
   replay can see it. Catch-up readers see committed entries only, and
   [group_write_pending] lets them wait out in-flight fan-outs before
   declaring themselves caught up. *)
and 'm sg_entry = {
  le_origin : int;
  le_seq : int;
  le_msg : 'm;
  mutable le_committed : bool;
}

and 'm service_group = {
  sg_group : int;  (* the process group implementing the service *)
  sg_policy : Balancer.policy;
  mutable sg_cursor : int;  (* round-robin position, seeded at registration *)
  mutable sg_log : 'm sg_entry list;  (* newest first *)
  mutable sg_log_len : int;
  (* origin -> highest seq trimmed out of the capped log; a member whose
     durable applied mark is below this cannot catch up by replay. *)
  sg_trim_hw : (int, int) Hashtbl.t;
}

and 'm domain = {
  engine : Engine.t;
  net : 'm packet Ethernet.t;
  cost : 'm cost_model;
  mutable next_txn : int;
  mutable next_mv : int;
  mutable next_logical_host : int;
  mutable next_group : int;
  logical_hosts : (int, 'm host) Hashtbl.t;
  (* Logical-host ids retired by a crash, mapped to the network address
     they lived at. A send to a pid of a retired incarnation is not
     failed omnisciently: the kernel has no liveness oracle, so the
     request goes on the wire to the last-known address and runs the
     probe machinery until it times out (or the restarted incarnation
     nacks it). *)
  retired_logical_hosts : (int, Ethernet.addr) Hashtbl.t;
  all_hosts : (Ethernet.addr, 'm host) Hashtbl.t;
  service_groups : (int, 'm service_group) Hashtbl.t;  (* by service id *)
  domain_prng : Vsim.Prng.t;
  mutable trace : Vsim.Trace.t option;
  mutable domain_obs : Vobs.Hub.t option;
  (* Extract the obs trace id riding inside a message, for stamping
     flight-recorder events. The kernel is parametric in ['m] and never
     inspects messages itself; the deployment (which knows the message
     type) installs the accessor. Default: everything untraced. *)
  mutable trace_of : 'm -> int;
  mutable getpid_cache_on : bool;
  ipc_transactions : Vsim.Stats.Counter.t;
  (* The telemetry pump: every [tel_interval] simulated ms (0 = off)
     the send path's next kernel operation snapshots fleet counters,
     fabric links and watched server queues into the hub's time-series
     store. Piggybacked on the hot path rather than self-scheduled so
     the pump adds zero engine events — obs-on and obs-off runs execute
     identical event sequences. *)
  mutable tel_interval : float;
  mutable tel_next : float;
  (* host name -> rollup group scope, fed to Rollup.group_of. *)
  tel_groups : (string, string) Hashtbl.t;
  (* (series label, pid) of servers whose queue depth is traced:
     every pid with an admission hook installed. *)
  mutable tel_watched : (string * Pid.t) list;
}

type 'm self = 'm process

(* --- small helpers --- *)

let engine_of_domain d = d.engine

let trace d fmt =
  match d.trace with
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  | Some tr -> Vsim.Trace.emit tr ~category:"ipc" fmt

(* Allocation guards for the IPC hot path: applying [trace]/[event_log]
   to a format string builds continuation closures even when the sink is
   off, so the hottest call sites test these one-word predicates first
   and skip the application (and any eager arguments like
   [d.trace_of msg]) entirely. *)
let tracing d = d.trace <> None
let obs_on host = host.domain.domain_obs <> None

(* The flight-recorder guard: [event_log] itself is a no-op when the
   recorder is off, but applying it to a format string still builds the
   continuation closures — this predicate lets call sites skip that. *)
let obs_events_on host = Vobs.Hub.recording host.domain.domain_obs

let set_trace d tr = d.trace <- Some tr

let set_obs d hub = d.domain_obs <- Some hub
let obs d = d.domain_obs
let set_trace_of d f = d.trace_of <- f

(* Flight-recorder events, mirroring [trace]. Reading the clock for
   the time stamp never advances it. *)
let event_log host ~cat ?(trace = 0) fmt =
  Vobs.Hub.eventf host.domain.domain_obs
    ~at:(Engine.now host.domain.engine)
    ~cat ~host:host.host_name ~trace fmt

(* Count one kernel operation against (host, "kernel", op) if a hub is
   attached. Pure bookkeeping: never touches the simulation clock. *)
let count_op host op =
  Vobs.Hub.count host.domain.domain_obs ~host:host.host_name ~server:"kernel"
    ~op

(* The per-transaction ops are deferred instead: send/receive/reply
   fire on every IPC transaction, and the keyed path's hashing is what
   the E15 overhead gate would choke on. *)
let ipc_ops = [| "send"; "receive"; "reply"; "admit"; "shed" |]

let ipc_send = 0
let ipc_receive = 1
let ipc_reply = 2
let ipc_admit = 3
let ipc_shed = 4
let count_ipc host op = Vobs.Deferred.incr host.ipc_counts op

(* Move every host's IPC counts since the previous flush into the
   registry, then flush the wire layer. Called at scrape points —
   exports, dumps, vsh — never per transaction; pure bookkeeping, so a
   flush at any instant leaves simulated behaviour untouched. *)
let flush_metrics d =
  (match d.domain_obs with
  | None -> ()
  | Some hub ->
      let m = Vobs.Hub.metrics hub in
      Hashtbl.iter
        (fun _ host ->
          Vobs.Deferred.flush host.ipc_counts m
            ~host:(fun () -> host.host_name)
            ~server:"kernel" ~ops:ipc_ops)
        d.all_hosts);
  Ethernet.flush_metrics d.net

let fresh_txn d =
  let t = d.next_txn in
  d.next_txn <- t + 1;
  t

let fresh_mv d =
  let t = d.next_mv in
  d.next_mv <- t + 1;
  t

let message_payload_bytes d m = 32 + d.cost.payload_bytes m
let control_payload_bytes = 16

(* Exception-style lookups: [Hashtbl.find_opt] allocates an option per
   probe, and pid resolution runs on every Send/Reply/Forward; matching
   on [exception Not_found] keeps the miss path allocation-free. *)
let find_process d pid =
  match Hashtbl.find d.logical_hosts (Pid.logical_host pid) with
  | host when host.host_up -> (
      match Hashtbl.find host.processes (Pid.local_pid pid) with
      | proc when proc.proc_alive -> Some proc
      | _ -> None
      | exception Not_found -> None)
  | _ -> None
  | exception Not_found -> None

let alive d pid = find_process d pid <> None

(* Undelivered requests queued at a process, both lanes. *)
let queue_length proc =
  Queue.length proc.queue
  + match proc.admission with Some ad -> Queue.length ad.ad_bulk | None -> 0

let queue_depth d pid =
  match find_process d pid with None -> 0 | Some proc -> queue_length proc

let self_pid proc = proc.pid
let self_name proc = proc.proc_name
let self_host_name proc = proc.proc_host.host_name
let host_of_self proc = proc.proc_host
let domain_of_host h = h.domain
let domain_of_self proc = proc.proc_host.domain
let host_addr h = h.addr
let host_logical h = h.logical_host
let host_name h = h.host_name
let host_is_up h = h.host_up

let check_alive proc =
  if not proc.proc_alive then raise (Proc.Killed "process destroyed")

(* --- the telemetry pump --- *)

(* The rollup group of one host: its edge switch on a switched fabric,
   a 1024-host address shard on the shared medium (which has no
   segments, but fleet-minus-one granularity is still wanted). *)
let telemetry_scope_of_host d host =
  match Ethernet.topology d.net with
  | Topology.Switched { fan_in } ->
      Topology.node_to_string (Topology.Edge (Topology.edge_of ~fan_in host.addr))
  | Topology.Shared_medium -> Printf.sprintf "shard%d" (host.addr / 1024)

let register_telemetry_host d host =
  let scope = telemetry_scope_of_host d host in
  Hashtbl.replace d.tel_groups host.host_name scope;
  (* The net layer labels the same host "host<addr>"; registering that
     alias keeps its handle binds off the topology-parsing fallback. *)
  Hashtbl.replace d.tel_groups (Printf.sprintf "host%d" host.addr) scope

(* The [Rollup.group_of] function for this domain: kernel host names
   map through the registration table, net-layer labels ("host3",
   "edge0->spine") through the topology; anything else is fleet-only. *)
let telemetry_group_of d name =
  match Hashtbl.find_opt d.tel_groups name with
  | Some g -> Some g
  | None -> Topology.rollup_scope (Ethernet.topology d.net) name

let telemetry_enabled d = d.tel_interval > 0.0

(* [enable_telemetry d ~interval_ms] arms the pump and maps every
   booted host to its rollup group (hosts booted later register as they
   boot). The pump itself runs from the send path — see
   [telemetry_tick]. *)
let enable_telemetry d ~interval_ms =
  if interval_ms <= 0.0 then
    invalid_arg "Kernel.enable_telemetry: interval must be positive";
  d.tel_interval <- interval_ms;
  d.tel_next <- Engine.now d.engine;
  Hashtbl.iter (fun _ host -> register_telemetry_host d host) d.all_hosts

let disable_telemetry d = d.tel_interval <- 0.0

(* One pump firing: fleet-wide counters, the fabric's interior links,
   and every watched server queue, stamped at the current simulated
   instant. Records only — never schedules, never advances the clock,
   so the engine's event sequence is identical with the pump on or
   off. *)
let telemetry_sample d hub ~now =
  match Vobs.Hub.timeseries hub with
  | None -> ()
  | Some ts ->
      Vobs.Timeseries.sample ts "kernel/ipc-transactions"
        Vobs.Timeseries.Counter ~now
        (float_of_int (Vsim.Stats.Counter.value d.ipc_transactions));
      let c = Ethernet.counters d.net in
      Vobs.Timeseries.sample ts "net/frames-sent" Vobs.Timeseries.Counter ~now
        (float_of_int c.Ethernet.frames_sent);
      Vobs.Timeseries.sample ts "net/frames-dropped" Vobs.Timeseries.Counter
        ~now
        (float_of_int c.Ethernet.frames_dropped);
      Ethernet.sample_timeseries d.net ts ~now;
      List.iter
        (fun (label, pid) ->
          Vobs.Timeseries.sample ts label Vobs.Timeseries.Gauge ~now
            (float_of_int (queue_depth d pid)))
        d.tel_watched

(* The hot-path hook: two float compares when armed but not yet due,
   nothing at all when disabled (callers guard on [obs_on]). *)
let telemetry_tick host =
  let d = host.domain in
  if d.tel_interval > 0.0 then begin
    let now = Engine.now d.engine in
    if now >= d.tel_next then begin
      d.tel_next <- now +. d.tel_interval;
      match d.domain_obs with
      | Some hub -> telemetry_sample d hub ~now
      | None -> ()
    end
  end

(* Make a suspended fiber's resumer crash-abortable and fire-once. *)
let once proc resume =
  let fired = ref false in
  let fire result =
    if not !fired then begin
      fired := true;
      proc.abort <- None;
      resume result
    end
  in
  proc.abort <- Some (fun e -> fire (Error e));
  fire

(* Suspend the current fiber; [register] receives its resumer. *)
let block proc register =
  Proc.suspend (fun resume -> register (once proc resume))

let charge proc ms =
  check_alive proc;
  if ms > 0.0 then Proc.delay proc.proc_host.domain.engine ms;
  check_alive proc

(* --- process lifecycle --- *)

exception Host_is_down of string

let alloc_local_pid host =
  let rec loop attempts =
    if attempts > 1_000_000 then failwith "Kernel: local pid space exhausted";
    let lp = 1 + Vsim.Prng.int host.host_prng Pid.max_local_pid in
    if Hashtbl.mem host.processes lp then loop (attempts + 1) else lp
  in
  loop 0

let destroy_process_record proc =
  proc.proc_alive <- false;
  Hashtbl.remove proc.proc_host.processes (Pid.local_pid proc.pid)

let spawn host ?(name = "process") body =
  if not host.host_up then raise (Host_is_down host.host_name);
  let lp = alloc_local_pid host in
  let pid = Pid.make ~logical_host:host.logical_host ~local_pid:lp in
  let proc =
    {
      pid;
      proc_name = name;
      proc_host = host;
      queue = Queue.create ();
      recv_waiter = None;
      recv_filter = None;
      abort = None;
      proc_alive = true;
      admission = None;
    }
  in
  Hashtbl.replace host.processes lp proc;
  Proc.spawn ~name host.domain.engine (fun () ->
      match body proc with
      | () -> destroy_process_record proc
      | exception e ->
          destroy_process_record proc;
          raise e);
  pid

(* Kill one process: its fiber is torn down at its next suspension
   point (it is blocked now, or will block at its next kernel call). *)
let destroy_process d pid =
  match find_process d pid with
  | None -> false
  | Some proc ->
      trace d "Destroy %a" Pid.pp pid;
      destroy_process_record proc;
      (match proc.abort with
      | Some abort -> abort (Proc.Killed "destroyed")
      | None -> ());
      true

(* --- delivery --- *)

let register_serving host ~sender ~receiver ~txn =
  Hashtbl.replace host.serving (sender, receiver) txn

(* Hand [msg] from [sender] to [proc] as the transaction [txn] it now
   serves. An idle receiver whose filter accepts the sender is resumed
   directly; otherwise the request waits on [lane]: the process's own
   queue, or (admission-controlled processes only) the bulk lane, served
   after every queued interactive request. *)
let deliver host ~txn ~sender proc lane msg =
  register_serving host ~sender ~receiver:proc.pid ~txn;
  if proc.proc_alive then begin
    let delivery = { d_sender = sender; d_msg = msg } in
    let matches =
      match proc.recv_filter with None -> true | Some f -> f sender
    in
    match proc.recv_waiter with
    | Some fire when matches ->
        proc.recv_waiter <- None;
        proc.recv_filter <- None;
        fire (Ok delivery)
    | Some _ | None -> Queue.add delivery lane
  end

(* Dequeue order: all interactive traffic first, then bulk. With no
   admission hook this is exactly the single-queue take it always was. *)
let take_delivery proc =
  match Queue.take_opt proc.queue with
  | Some _ as d -> d
  | None -> (
      match proc.admission with
      | Some ad -> Queue.take_opt ad.ad_bulk
      | None -> None)

let cancel_pending_timers host pending =
  let eng = host.domain.engine in
  (match pending.p_retransmit with
  | Some tm -> Engine.cancel eng tm
  | None -> ());
  (match pending.p_timeout with Some tm -> Engine.cancel eng tm | None -> ());
  pending.p_retransmit <- None;
  pending.p_timeout <- None

(* Resume a blocked sender with its reply (or error). Safe to call from
   event context; no-op if the transaction already completed. Cancels
   the transaction's probe timers, so a satisfied SRR leaves no residue
   in the event queue. *)
let fill_pending host ~txn result =
  match Hashtbl.find_opt host.pendings txn with
  | None -> () (* timed out, crashed, or duplicate reply: drop *)
  | Some pending ->
      Hashtbl.remove host.pendings txn;
      cancel_pending_timers host pending;
      pending.p_fire result

(* Retire a transaction without firing it: the cleanup for abnormal
   exits (the blocked fiber was aborted by destroy/crash) where the
   pending record may still be armed. *)
let drop_pending host ~txn =
  match Hashtbl.find_opt host.pendings txn with
  | None -> ()
  | Some pending ->
      Hashtbl.remove host.pendings txn;
      cancel_pending_timers host pending

(* Take a move operation out of flight, cancelling its timeout. *)
let take_move host ~mv =
  match Hashtbl.find_opt host.moves mv with
  | None -> None
  | Some op ->
      Hashtbl.remove host.moves mv;
      (match op.mv_timer with
      | Some tm -> Engine.cancel host.domain.engine tm
      | None -> ());
      op.mv_timer <- None;
      Some op

let transmit host ~dst ~payload_bytes packet =
  Ethernet.transmit host.domain.net
    { Ethernet.src = host.addr; dst; payload = packet; payload_bytes }

(* Receive-side CPU for a message-bearing packet arriving off the wire. *)
let remote_recv_cost d msg =
  Calibration.small_packet_recv_cpu
  +. (if d.cost.segment_bytes msg > 0 then Calibration.segment_copy_remote_cpu else 0.0)

(* Put a completed transaction's reply on the wire towards [dst],
   keeping it to replay if the frame is lost and the sender retransmits
   (bounded cache: duplicate suppression is only needed within the
   retransmission window). *)
let transmit_reply host ~txn ~replier ~dst msg =
  let packet = Reply_pkt { txn; replier; msg } in
  let bytes = message_payload_bytes host.domain msg in
  if Hashtbl.length host.completed_replies > 4096 then
    Hashtbl.reset host.completed_replies;
  Hashtbl.replace host.completed_replies txn (dst, packet, bytes);
  transmit host ~dst:(Ethernet.Unicast dst) ~payload_bytes:bytes packet

(* --- request dispatch (Send and Forward share this) --- *)

(* Complete a shed transaction on the server's behalf: resume a local
   sender directly, or put the rejection on the wire towards a remote
   one (cached for replay exactly like an ordinary reply). No server
   fiber runs and no service time is charged — rejection is the cheap
   path, which is the entire point of shedding early. *)
let shed_reply host ~txn ~sender ~replier msg =
  match find_process host.domain sender with
  | Some sender_proc when sender_proc.proc_host == host ->
      fill_pending host ~txn (Ok (msg, replier))
  | Some sender_proc ->
      transmit_reply host ~txn ~replier ~dst:sender_proc.proc_host.addr msg
  | None -> () (* sender died while blocked; nothing to resume *)

let dispatch_local_request host ~txn ~sender ~target_proc msg =
  match target_proc.admission with
  | None -> deliver host ~txn ~sender target_proc target_proc.queue msg
  | Some ad -> (
      let depth = queue_length target_proc in
      match ad.ad_decide ~now:(Engine.now host.domain.engine) ~depth msg with
      | (Admit | Admit_bulk) as verdict ->
          ad.ad_admitted <- ad.ad_admitted + 1;
          count_ipc host ipc_admit;
          let lane =
            match verdict with
            | Admit_bulk -> ad.ad_bulk
            | Admit | Shed _ -> target_proc.queue
          in
          deliver host ~txn ~sender target_proc lane msg
      | Shed reply_msg ->
          ad.ad_shed <- ad.ad_shed + 1;
          count_ipc host ipc_shed;
          if obs_events_on host then
            event_log host ~cat:Vobs.Eventlog.Admission
              ~trace:(host.domain.trace_of msg)
              "shed %a -> %a (depth %d)" Pid.pp sender Pid.pp target_proc.pid
              depth;
          shed_reply host ~txn ~sender ~replier:target_proc.pid reply_msg)

let dispatch_remote_request src_host ~dst_addr ~txn ~sender ~target msg =
  transmit src_host ~dst:(Ethernet.Unicast dst_addr)
    ~payload_bytes:(message_payload_bytes src_host.domain msg)
    (Request { txn; sender; target; msg })

(* Arm the unreachable-destination timeout for a remote transaction.
   Like the real kernel's retransmission/probe machinery, the timeout
   renews while the destination host remains reachable — a server
   legitimately busy serving the transaction (e.g. a long MoveTo) does
   not abort the sender. A bounded number of probes caps transactions
   whose forwarded target silently disappeared. [on_probe attempt] runs
   at every probe that renews the timeout ([ignore] for a plain remote
   Send; see [forward] for the other use). *)
let max_timeout_probes = 60

let arm_timeout host ~txn pending ~dst_addr ~on_probe =
  let rec probe attempts () =
    let d = host.domain in
    if Hashtbl.mem host.pendings txn && host.host_up then begin
      let target_host_reachable =
        match Hashtbl.find_opt d.all_hosts dst_addr with
        | Some h ->
            h.host_up && Ethernet.reachable d.net host.addr dst_addr
        | None -> false
      in
      if target_host_reachable && attempts < max_timeout_probes then begin
        on_probe attempts;
        pending.p_timeout <-
          Some
            (Engine.timer ~delay:Calibration.ipc_timeout_ms d.engine
               (probe (attempts + 1)))
      end
      else fill_pending host ~txn (Error (Ipc_error Timeout))
    end
  in
  pending.p_timeout <-
    Some
      (Engine.timer ~delay:Calibration.ipc_timeout_ms host.domain.engine
         (probe 1))

(* Periodically resend a request packet while its transaction is still
   pending; the receiving kernel suppresses duplicates. Rides under the
   timeout above, which bounds the total wait. *)
let arm_retransmit host ~txn pending resend =
  let d = host.domain in
  let rec tick () =
    if Hashtbl.mem host.pendings txn && host.host_up then begin
      if obs_events_on host then
        event_log host ~cat:Vobs.Eventlog.Kernel "retransmit-probe txn %d" txn;
      resend ();
      pending.p_retransmit <-
        Some
          (Engine.timer ~delay:Calibration.retransmit_interval_ms d.engine tick)
    end
  in
  pending.p_retransmit <-
    Some (Engine.timer ~delay:Calibration.retransmit_interval_ms d.engine tick)

(* --- the IPC primitives --- *)

(* One message transaction from [proc]: register its pending record
   under [txn], have [start host txn pending] put the request in motion,
   block until a reply or an error fires the record, and retire the
   record however the wait ended. [start] is handed the host and txn so
   that its closure need not capture them. *)
let transact proc ~txn ~buffer start =
  let result =
    try
      Ok
        (Proc.suspend (fun resume ->
             let pending =
               {
                 p_fire = once proc resume;
                 p_buffer = buffer;
                 p_retransmit = None;
                 p_timeout = None;
               }
             in
             Hashtbl.replace proc.proc_host.pendings txn pending;
             start proc.proc_host txn pending))
    with Ipc_error e -> Error e
  in
  drop_pending proc.proc_host ~txn;
  result

(* The remote leg of Send: put the request on the wire towards
   [dst_addr] and block with retransmission and timeout armed. *)
let send_remote proc ~buffer ~dst_addr ~target msg =
  let host = proc.proc_host in
  let d = host.domain in
  charge proc Calibration.small_packet_send_cpu;
  let txn = fresh_txn d in
  (* One packet and one payload-size computation serve the initial
     transmission and every retransmission. *)
  let packet = Request { txn; sender = proc.pid; target; msg } in
  let bytes = message_payload_bytes d msg in
  let send_it () =
    transmit host ~dst:(Ethernet.Unicast dst_addr) ~payload_bytes:bytes packet
  in
  transact proc ~txn ~buffer (fun host txn pending ->
      send_it ();
      arm_retransmit host ~txn pending send_it;
      arm_timeout host ~txn pending ~dst_addr ~on_probe:ignore)

(* [send proc target msg] implements the Send primitive: blocks the
   calling fiber until the target (or whoever the message is forwarded
   to) replies. [buffer], if given, is the memory the sender exposes to
   MoveTo/MoveFrom for the duration of the transaction. *)
let send proc ?buffer target msg =
  check_alive proc;
  let host = proc.proc_host in
  let d = host.domain in
  Vsim.Stats.Counter.incr d.ipc_transactions;
  count_ipc host ipc_send;
  if tracing d then trace d "Send %a -> %a" Pid.pp proc.pid Pid.pp target;
  if obs_on host then begin
    telemetry_tick host;
    if obs_events_on host then
      event_log host ~cat:Vobs.Eventlog.Kernel ~trace:(d.trace_of msg)
        "send %a -> %a" Pid.pp proc.pid Pid.pp target
  end;
  match find_process d target with
  | Some target_proc when target_proc.proc_host == host ->
      charge proc Calibration.local_ipc_leg_cpu;
      if not target_proc.proc_alive then Error Nonexistent_process
      else
        let txn = fresh_txn d in
        transact proc ~txn ~buffer (fun host txn _ ->
            dispatch_local_request host ~txn ~sender:proc.pid ~target_proc msg)
  | Some target_proc ->
      send_remote proc ~buffer ~dst_addr:target_proc.proc_host.addr ~target msg
  | None -> (
      (* No live process under this pid. If its logical host was retired
         by a crash, the kernel cannot know that authoritatively (no
         liveness oracle): the request goes on the wire to the pid's
         last-known address and fails by timeout or by a Nack from the
         restarted incarnation. A pid of the local host's own history —
         or of a never-issued logical host — is refused directly. *)
      match Hashtbl.find_opt d.retired_logical_hosts (Pid.logical_host target) with
      | Some dst_addr when dst_addr <> host.addr ->
          send_remote proc ~buffer ~dst_addr ~target msg
      | Some _ | None -> Error Nonexistent_process)

(* The epilogue both receive paths share: count and trace the delivery
   and hand it to the receiver. *)
let received proc delivery =
  let host = proc.proc_host in
  count_ipc host ipc_receive;
  if tracing host.domain then
    trace host.domain "Receive %a <- %a" Pid.pp proc.pid Pid.pp
      delivery.d_sender;
  (delivery.d_msg, delivery.d_sender)

(* [receive proc] blocks until a message arrives; returns it with the
   sender's pid. *)
let receive proc =
  check_alive proc;
  received proc
    (match take_delivery proc with
    | Some delivery -> delivery
    | None ->
        block proc (fun fire ->
            proc.recv_filter <- None;
            proc.recv_waiter <- Some fire))

(* Blocks until a message from a sender satisfying [from] arrives.
   Other messages stay queued. *)
let receive_where proc ~from =
  check_alive proc;
  let find_queued_in q =
    let rec go acc =
      match Queue.take_opt q with
      | None ->
          List.iter (fun x -> Queue.add x q) (List.rev acc);
          None
      | Some delivery when from delivery.d_sender ->
          List.iter (fun x -> Queue.add x q) (List.rev acc);
          Some delivery
      | Some other -> go (other :: acc)
    in
    go []
  in
  let find_queued () =
    match find_queued_in proc.queue with
    | Some _ as d -> d
    | None -> (
        match proc.admission with
        | Some ad -> find_queued_in ad.ad_bulk
        | None -> None)
  in
  received proc
    (match find_queued () with
    | Some delivery -> delivery
    | None ->
        block proc (fun fire ->
            proc.recv_filter <- Some from;
            proc.recv_waiter <- Some fire))

(* [reply proc ~to_ msg] completes the transaction with blocked sender
   [to_]. *)
let reply proc ~to_ msg =
  check_alive proc;
  let host = proc.proc_host in
  let d = host.domain in
  match Hashtbl.find_opt host.serving (to_, proc.pid) with
  | None -> Error Not_awaiting_reply
  | Some txn -> (
      Hashtbl.remove host.serving (to_, proc.pid);
      count_ipc host ipc_reply;
      if tracing d then trace d "Reply %a -> %a" Pid.pp proc.pid Pid.pp to_;
      match find_process d to_ with
      | None -> Ok () (* sender died while blocked; nothing to resume *)
      | Some sender_proc when sender_proc.proc_host == host ->
          charge proc Calibration.local_ipc_leg_cpu;
          fill_pending host ~txn (Ok (msg, proc.pid));
          Ok ()
      | Some sender_proc ->
          charge proc Calibration.small_packet_send_cpu;
          transmit_reply host ~txn ~replier:proc.pid
            ~dst:sender_proc.proc_host.addr msg;
          Ok ())

(* [forward proc ~from_ ~to_ msg] passes the transaction on: [to_] sees
   [msg] as if [from_] had sent it directly, and will reply straight to
   [from_]. This is the kernel mechanism the name-handling protocol's
   multi-server name interpretation rides on (§5.4). *)
let forward proc ~from_ ~to_ msg =
  check_alive proc;
  let host = proc.proc_host in
  let d = host.domain in
  match Hashtbl.find_opt host.serving (from_, proc.pid) with
  | None -> Error Not_awaiting_reply
  | Some txn -> (
      Hashtbl.remove host.serving (from_, proc.pid);
      count_op host "forward";
      if tracing d then
        trace d "Forward %a: %a -> %a" Pid.pp proc.pid Pid.pp from_ Pid.pp to_;
      if obs_events_on host then
        event_log host ~cat:Vobs.Eventlog.Kernel ~trace:(d.trace_of msg)
          "forward %a: %a -> %a" Pid.pp proc.pid Pid.pp from_ Pid.pp to_;
      match find_process d to_ with
      | None ->
          (* Target gone: fail the original sender's transaction. *)
          (match find_process d from_ with
          | Some sender_proc ->
              fill_pending sender_proc.proc_host ~txn
                (Error (Ipc_error Nonexistent_process))
          | None -> ());
          Error Nonexistent_process
      | Some target_proc when target_proc.proc_host == host ->
          charge proc Calibration.local_ipc_leg_cpu;
          dispatch_local_request host ~txn ~sender:from_ ~target_proc msg;
          Ok ()
      | Some target_proc ->
          charge proc Calibration.small_packet_send_cpu;
          let dst_addr = target_proc.proc_host.addr in
          let send_it attempt =
            if attempt > 0 && obs_events_on host then
              event_log host ~cat:Vobs.Eventlog.Kernel
                "forward-recovery-probe txn %d (attempt %d)" txn attempt;
            dispatch_remote_request host ~dst_addr ~txn ~sender:from_
              ~target:to_ msg
          in
          send_it 0;
          (* A sender on this very host submitted the transaction via
             the local path, which arms no retransmission or timeout —
             local delivery cannot lose frames. Now that the transaction
             has left the host, the reply leg is lossy: a dropped reply
             frame would block the sender forever. So it gets the probe
             loop, at the timeout pace, and every probe resends the
             request: the target's completed-reply cache replays a lost
             reply, its duplicate suppression absorbs the rest, and the
             transaction times out once the target is unreachable.
             Fault-free forwards complete before the first probe fires.
             Remote-origin senders already retransmit and time out from
             their own host. *)
          (match Hashtbl.find_opt host.pendings txn with
          | Some pending ->
              arm_timeout host ~txn pending ~dst_addr ~on_probe:send_it
          | None -> ());
          Ok ())

(* --- admission control (overload protection) --- *)

(* Install (or replace) the admission hook on [pid]. The kernel owns
   the mechanism only: every local-dispatch request to [pid] is put to
   [decide], which sorts it onto the interactive or bulk lane or sheds
   it with a kernel-level reply. Replacing a live hook keeps the bulk
   queue and counters — a policy change mid-run does not lose admitted
   work. *)
let set_admission d pid decide =
  match find_process d pid with
  | None -> ()
  | Some proc -> (
      match proc.admission with
      | Some ad -> ad.ad_decide <- decide
      | None ->
          proc.admission <-
            Some
              {
                ad_decide = decide;
                ad_bulk = Queue.create ();
                ad_admitted = 0;
                ad_shed = 0;
              };
          (* A server worth admission-protecting is a server whose
             queue depth is worth a trace. *)
          let label =
            Fmt.str "server/%s/%a/queue" proc.proc_host.host_name Pid.pp pid
          in
          d.tel_watched <- (label, pid) :: d.tel_watched)

(* Remove the hook; admitted bulk work drains back into the main queue
   so nothing already accepted is lost. *)
let clear_admission d pid =
  match find_process d pid with
  | None -> ()
  | Some proc -> (
      match proc.admission with
      | None -> ()
      | Some ad ->
          Queue.transfer ad.ad_bulk proc.queue;
          proc.admission <- None;
          d.tel_watched <- List.filter (fun (_, p) -> p <> pid) d.tel_watched)

(* [(admitted, shed)] since the hook was installed; [(0, 0)] without
   one. *)
let admission_counters d pid =
  match find_process d pid with
  | Some { admission = Some ad; _ } -> (ad.ad_admitted, ad.ad_shed)
  | _ -> ((0, 0) : int * int)

(* --- MoveTo / MoveFrom --- *)

let pages_of_bytes len =
  let page = Calibration.bulk_packet_bytes in
  max 1 ((len + page - 1) / page)

(* Stream [data] from [src_host] as paced bulk packets; [mk_packet]
   builds each wire packet from (seq, last, chunk). The per-packet send
   CPU paces the stream, reproducing the host-limited MoveTo throughput
   of §3.1. *)
let stream_chunks src_host ~dst_addr data mk_packet =
  let d = src_host.domain in
  let page = Calibration.bulk_packet_bytes in
  let len = Bytes.length data in
  let n = pages_of_bytes len in
  let now = Engine.now d.engine in
  for i = 0 to n - 1 do
    let at = now +. (float_of_int (i + 1) *. Calibration.bulk_packet_send_cpu) in
    Engine.schedule_at d.engine at (fun () ->
        if src_host.host_up then begin
          let off = i * page in
          let chunk_len = min page (len - off) in
          let chunk = Bytes.sub data off chunk_len in
          transmit src_host ~dst:(Ethernet.Unicast dst_addr)
            ~payload_bytes:(control_payload_bytes + chunk_len)
            (mk_packet ~seq:i ~last:(i = n - 1) ~chunk)
        end)
  done

(* The part MoveFrom and MoveTo share. [proc] must be serving
   [sender]. A sender on this host exposes its buffer directly: [len]
   bytes must fit it, [local] does the copy after the per-page CPU is
   charged. A remote sender's buffer is reached by [remote ~txn addr],
   which runs the wire protocol towards the sender's host. *)
let move proc ~sender ~len ~to_sender ~local ~remote =
  check_alive proc;
  let host = proc.proc_host in
  let d = host.domain in
  match Hashtbl.find_opt host.serving (sender, proc.pid) with
  | None -> Error Not_awaiting_reply
  | Some txn -> (
      let op, verb, arrow =
        if to_sender then ("move-to", "MoveTo", "->")
        else ("move-from", "MoveFrom", "<-")
      in
      count_op host op;
      trace d "%s %a %s %a (%dB)" verb Pid.pp proc.pid arrow Pid.pp sender len;
      match find_process d sender with
      | None -> Error Nonexistent_process
      | Some sender_proc when sender_proc.proc_host == host -> (
          match Hashtbl.find_opt host.pendings txn with
          | None -> Error Not_awaiting_reply
          | Some { p_buffer = None; _ } -> Error Bad_buffer
          | Some { p_buffer = Some buf; _ } ->
              if len > Bytes.length buf then Error Bad_buffer
              else begin
                charge proc
                  (float_of_int (pages_of_bytes len)
                  *. Calibration.local_move_page_cpu);
                Ok (local buf)
              end)
      | Some sender_proc -> remote ~txn sender_proc.proc_host.addr)

(* Block until move [mv] completes: the data a MoveFrom asked for, or
   the ack that ends a MoveTo. Fails with Timeout if neither arrives in
   time. *)
let await_move proc ~mv ~len =
  let host = proc.proc_host in
  try
    Ok
      (block proc (fun fire ->
           let op =
             { mv_fire = fire; mv_buf = Buffer.create len; mv_timer = None }
           in
           Hashtbl.replace host.moves mv op;
           op.mv_timer <-
             Some
               (Engine.timer ~delay:Calibration.ipc_timeout_ms
                  host.domain.engine (fun () ->
                    match take_move host ~mv with
                    | None -> ()
                    | Some op -> op.mv_fire (Error (Ipc_error Timeout))))))
  with Ipc_error e ->
    ignore (take_move host ~mv : 'm move_op option);
    Error e

(* [move_from proc ~sender ~len] reads [len] bytes from the buffer the
   blocked sender exposed. The caller must currently be serving
   [sender]. *)
let move_from proc ~sender ~len =
  move proc ~sender ~len ~to_sender:false
    ~local:(fun buf -> Bytes.sub buf 0 len)
    ~remote:(fun ~txn remote_addr ->
      let host = proc.proc_host in
      let mv = fresh_mv host.domain in
      charge proc Calibration.small_packet_send_cpu;
      transmit host ~dst:(Ethernet.Unicast remote_addr)
        ~payload_bytes:control_payload_bytes
        (Move_request { txn; mv; mover_addr = host.addr; len });
      await_move proc ~mv ~len)

(* [move_to proc ~sender data] writes [data] into the blocked sender's
   exposed buffer. *)
let move_to proc ~sender data =
  let len = Bytes.length data in
  move proc ~sender ~len ~to_sender:true
    ~local:(fun buf -> Bytes.blit data 0 buf 0 len)
    ~remote:(fun ~txn remote_addr ->
      let host = proc.proc_host in
      let mv = fresh_mv host.domain in
      let page = Calibration.bulk_packet_bytes in
      let n = pages_of_bytes len in
      (* The mover's own fiber paces the outgoing packets (it is the
         mover's CPU that limits throughput), then blocks for the
         completion ack. *)
      for i = 0 to n - 1 do
        charge proc Calibration.bulk_packet_send_cpu;
        let off = i * page in
        let chunk_len = min page (len - off) in
        transmit host ~dst:(Ethernet.Unicast remote_addr)
          ~payload_bytes:(control_payload_bytes + chunk_len)
          (Move_to_data
             {
               txn;
               mv;
               mover_addr = host.addr;
               seq = i;
               last = i = n - 1;
               data = Bytes.sub data off chunk_len;
             })
      done;
      Result.map ignore (await_move proc ~mv ~len:0))

(* --- service naming: SetPid / GetPid (§4.2) --- *)

let set_pid host ~service pid scope =
  let entries =
    match Hashtbl.find_opt host.services service with Some l -> l | None -> []
  in
  (* A new registration for the same (service, scope) replaces the old
     one; Local and Remote registrations may coexist (§4.2). *)
  let entries = List.filter (fun (_, sc) -> sc <> scope) entries in
  Hashtbl.replace host.services service ((pid, scope) :: entries)

let local_service_lookup host ~service ~origin =
  match Hashtbl.find_opt host.services service with
  | None -> None
  | Some entries ->
      List.find_opt (fun (_, sc) -> Service.visible ~registered:sc ~origin) entries
      |> Option.map fst

(* --- replicated services: a logical service id bound to a group --- *)

let register_service_group d ~service ~group policy =
  (* The only randomness replica selection consumes: the round-robin
     cursor's starting point. Drawn here, once, so a domain that never
     registers a group draws nothing and replays bit-identically. *)
  let cursor = Vsim.Prng.int d.domain_prng 1024 in
  Hashtbl.replace d.service_groups service
    {
      sg_group = group;
      sg_policy = policy;
      sg_cursor = cursor;
      sg_log = [];
      sg_log_len = 0;
      sg_trim_hw = Hashtbl.create 4;
    }

let clear_service_group d ~service = Hashtbl.remove d.service_groups service

let service_group d ~service =
  Option.map (fun sg -> sg.sg_group) (Hashtbl.find_opt d.service_groups service)

let local_group_members host ~group =
  match Hashtbl.find_opt host.group_members group with Some l -> l | None -> []

(* The live members of a group visible from [requester]: on an up host,
   not partitioned away, process alive — sorted by (address, local pid)
   so every host enumerates them identically. *)
let reachable_group_members d ~requester ~group =
  Hashtbl.fold
    (fun addr h acc ->
      if h.host_up && Ethernet.reachable d.net requester addr then
        List.fold_left
          (fun acc pid ->
            match Hashtbl.find_opt h.processes (Pid.local_pid pid) with
            | Some p when p.proc_alive -> (pid, addr) :: acc
            | Some _ | None -> acc)
          acc
          (local_group_members h ~group)
      else acc)
    d.all_hosts []
  |> List.sort (fun (p1, a1) (p2, a2) ->
         compare (a1, Pid.local_pid p1) (a2, Pid.local_pid p2))

let service_group_members d ~requester ~service =
  match Hashtbl.find_opt d.service_groups service with
  | None -> []
  | Some sg ->
      List.map fst (reachable_group_members d ~requester ~group:sg.sg_group)

(* Ordered write-all log for a replicated service: appended pending at
   fan-out start, committed or aborted when the fan-out resolves, read
   back (committed entries, oldest first) by a member catching up. The
   log is capped: once it exceeds [sg_log_cap] committed entries the
   oldest are trimmed, with the per-origin trim high-water mark kept so
   a catch-up can detect that replay alone can no longer cover it. *)
let sg_log_cap = 1024

let sg_trim sg =
  if sg.sg_log_len > sg_log_cap then begin
    let rec split n = function
      | [] -> ([], [])
      | e :: rest ->
          if n = 0 then ([], e :: rest)
          else
            let kept, dropped = split (n - 1) rest in
            (e :: kept, dropped)
    in
    let kept, dropped = split sg_log_cap sg.sg_log in
    (* A pending entry is always recent (a fan-out resolves within one
       coordinator request), so only committed entries can age into the
       dropped tail; keep any pending stragglers regardless. *)
    let stragglers = List.filter (fun e -> not e.le_committed) dropped in
    List.iter
      (fun e ->
        if e.le_committed then
          let prev =
            match Hashtbl.find_opt sg.sg_trim_hw e.le_origin with
            | Some s -> s
            | None -> 0
          in
          Hashtbl.replace sg.sg_trim_hw e.le_origin (max prev e.le_seq))
      dropped;
    sg.sg_log <- kept @ stragglers;
    sg.sg_log_len <- List.length sg.sg_log
  end

let log_group_write d ~service ~origin ~seq msg =
  match Hashtbl.find_opt d.service_groups service with
  | None -> ()
  | Some sg ->
      sg.sg_log <-
        { le_origin = origin; le_seq = seq; le_msg = msg; le_committed = false }
        :: sg.sg_log;
      sg.sg_log_len <- sg.sg_log_len + 1;
      sg_trim sg

let commit_group_write d ~service ~origin ~seq =
  match Hashtbl.find_opt d.service_groups service with
  | None -> ()
  | Some sg ->
      List.iter
        (fun e ->
          if e.le_origin = origin && e.le_seq = seq then e.le_committed <- true)
        sg.sg_log

let abort_group_write d ~service ~origin ~seq =
  match Hashtbl.find_opt d.service_groups service with
  | None -> ()
  | Some sg ->
      sg.sg_log <-
        List.filter
          (fun e ->
            not (e.le_origin = origin && e.le_seq = seq && not e.le_committed))
          sg.sg_log;
      sg.sg_log_len <- List.length sg.sg_log

let group_write_log d ~service =
  match Hashtbl.find_opt d.service_groups service with
  | None -> []
  | Some sg ->
      List.rev
        (List.filter_map
           (fun e ->
             if e.le_committed then Some (e.le_origin, e.le_seq, e.le_msg)
             else None)
           sg.sg_log)

let group_write_pending d ~service =
  match Hashtbl.find_opt d.service_groups service with
  | None -> false
  | Some sg -> List.exists (fun e -> not e.le_committed) sg.sg_log

let group_write_trimmed d ~service =
  match Hashtbl.find_opt d.service_groups service with
  | None -> []
  | Some sg ->
      Hashtbl.fold (fun origin seq acc -> (origin, seq) :: acc) sg.sg_trim_hw []
      |> List.sort compare

(* GetPid against the service-group registry: the service has a
   registered group with at least one live reachable member. Split into
   an availability check and the choice itself so only the choice
   advances the round-robin cursor (a guard must not). *)
let balanced_lookup_available host ~service =
  let d = host.domain in
  match Hashtbl.find_opt d.service_groups service with
  | None -> false
  | Some sg ->
      reachable_group_members d ~requester:host.addr ~group:sg.sg_group <> []

let balanced_choice host ~service =
  let d = host.domain in
  match Hashtbl.find_opt d.service_groups service with
  | None -> None
  | Some sg -> (
      match reachable_group_members d ~requester:host.addr ~group:sg.sg_group with
      | [] -> None
      | members ->
          let choice =
            Balancer.pick sg.sg_policy ~cursor:sg.sg_cursor ~origin:host.addr
              members
          in
          (match sg.sg_policy with
          | Balancer.Round_robin -> sg.sg_cursor <- sg.sg_cursor + 1
          | Balancer.Nearest_host -> ());
          (match choice with
          | Some pid ->
              if obs_events_on host then
                event_log host ~cat:Vobs.Eventlog.Balancer
                  "pick service %d -> %a (%d reachable)" service Pid.pp pid
                  (List.length members)
          | None -> ());
          choice)

let get_pid proc ~service scope =
  check_alive proc;
  let host = proc.proc_host in
  let d = host.domain in
  count_op host "get-pid";
  charge proc Calibration.getpid_check_cpu;
  match local_service_lookup host ~service ~origin:`Local_query with
  | Some pid when alive d pid -> Some pid
  | _ when scope = Service.Local -> None
  | _ when balanced_lookup_available host ~service ->
      count_op host "get-pid-balanced";
      balanced_choice host ~service
  | _ when d.getpid_cache_on && Hashtbl.mem host.getpid_cache service ->
      (* Cached broadcast result. Deliberately no liveness check: the
         cache is validated on use — the failure of the send or forward
         that follows is what invalidates it (drop_cached_pid). *)
      count_op host "get-pid-cached";
      Some (Hashtbl.find host.getpid_cache service)
  | _ ->
      (* Broadcast query; first responder wins (§4.2). *)
      charge proc Calibration.small_packet_send_cpu;
      let txn = fresh_txn d in
      let answer =
        block proc (fun fire ->
            let deadline = ref None in
            let settle pid_opt =
              if Hashtbl.mem host.getpid_waits txn then begin
                Hashtbl.remove host.getpid_waits txn;
                (match !deadline with
                | Some tm -> Engine.cancel d.engine tm
                | None -> ());
                fire (Ok pid_opt)
              end
            in
            Hashtbl.replace host.getpid_waits txn settle;
            transmit host ~dst:Ethernet.Broadcast
              ~payload_bytes:control_payload_bytes
              (Getpid_query { txn; requester_addr = host.addr; service });
            deadline :=
              Some
                (Engine.timer ~delay:Calibration.getpid_timeout_ms d.engine
                   (fun () -> settle None)))
      in
      (if d.getpid_cache_on then
         match answer with
         | Some pid -> Hashtbl.replace host.getpid_cache service pid
         | None -> ());
      answer

(* Enable or disable the GetPid result cache; disabling flushes every
   host's cache so behaviour reverts exactly to the uncached kernel. *)
let set_getpid_cache d flag =
  d.getpid_cache_on <- flag;
  if not flag then
    Hashtbl.iter (fun _ host -> Hashtbl.reset host.getpid_cache) d.all_hosts

let getpid_cache_enabled d = d.getpid_cache_on

(* On-use invalidation: a send or forward to the cached pid failed, so
   the binding is stale. The caller's client sees that failure and
   retries; the retry's GetPid broadcasts afresh. *)
let drop_cached_pid proc ~service =
  let host = proc.proc_host in
  if Hashtbl.mem host.getpid_cache service then begin
    Hashtbl.remove host.getpid_cache service;
    count_op host "get-pid-stale"
  end

(* --- process groups and multicast Send (§2.3, §7) --- *)

let create_group d =
  let g = d.next_group in
  d.next_group <- g + 1;
  g

let join_group host ~group pid =
  let members =
    match Hashtbl.find_opt host.group_members group with Some l -> l | None -> []
  in
  if not (List.exists (Pid.equal pid) members) then begin
    Hashtbl.replace host.group_members group (pid :: members);
    Ethernet.join_group host.domain.net ~group ~addr:host.addr
  end

let leave_group host ~group pid =
  match Hashtbl.find_opt host.group_members group with
  | None -> ()
  | Some members ->
      let members = List.filter (fun p -> not (Pid.equal p pid)) members in
      if members = [] then begin
        Hashtbl.remove host.group_members group;
        Ethernet.leave_group host.domain.net ~group ~addr:host.addr
      end
      else Hashtbl.replace host.group_members group members

(* Deliver a group request to each live member on [host] itself (the
   wire does not loop frames back to their source). A sender on [host]
   pays the local IPC leg per member first; a request off the wire has
   already paid its receive cost. *)
let deliver_to_members host ~txn ~sender ~group ~local_leg msg =
  List.iter
    (fun pid ->
      match Hashtbl.find host.processes (Pid.local_pid pid) with
      | member when member.proc_alive && Pid.equal member.pid pid ->
          if local_leg then
            Engine.schedule ~delay:Calibration.local_ipc_leg_cpu
              host.domain.engine (fun () ->
                deliver host ~txn ~sender member member.queue msg)
          else deliver host ~txn ~sender member member.queue msg
      | _ -> ()
      | exception Not_found -> ())
    (local_group_members host ~group)

(* [send_group proc ~group msg] multicasts to every member of the group
   and blocks for the first reply, V's group-send semantics. *)
let send_group proc ~group msg =
  check_alive proc;
  let host = proc.proc_host in
  let d = host.domain in
  Vsim.Stats.Counter.incr d.ipc_transactions;
  count_op host "group-send";
  if tracing d then trace d "GroupSend %a -> group%d" Pid.pp proc.pid group;
  charge proc Calibration.small_packet_send_cpu;
  let txn = fresh_txn d in
  transact proc ~txn ~buffer:None (fun host txn pending ->
      deliver_to_members host ~txn ~sender:proc.pid ~group ~local_leg:true msg;
      transmit host ~dst:(Ethernet.Multicast group)
        ~payload_bytes:(message_payload_bytes host.domain msg)
        (Group_request { txn; sender = proc.pid; group; msg });
      pending.p_timeout <-
        Some
          (Engine.timer ~delay:Calibration.getpid_timeout_ms host.domain.engine
             (fun () -> fill_pending host ~txn (Error (Ipc_error No_reply)))))

(* [forward_group proc ~from_ ~group msg] forwards the transaction of
   blocked sender [from_] to every member of a process group; whichever
   member replies first completes the transaction (later replies are
   dropped at the sender). This is the §7 mechanism by which "a single
   context could be implemented transparently by a group of servers". *)
let forward_group proc ~from_ ~group msg =
  check_alive proc;
  let host = proc.proc_host in
  let d = host.domain in
  match Hashtbl.find_opt host.serving (from_, proc.pid) with
  | None -> Error Not_awaiting_reply
  | Some txn ->
      Hashtbl.remove host.serving (from_, proc.pid);
      count_op host "forward-group";
      if tracing d then
        trace d "ForwardGroup %a: %a -> group%d" Pid.pp proc.pid Pid.pp from_
          group;
      charge proc Calibration.small_packet_send_cpu;
      deliver_to_members host ~txn ~sender:from_ ~group ~local_leg:true msg;
      transmit host ~dst:(Ethernet.Multicast group)
        ~payload_bytes:(message_payload_bytes d msg)
        (Group_request { txn; sender = from_; group; msg });
      Ok ()

(* --- packet handling --- *)

let handle_packet host (frame : 'm packet Ethernet.frame) =
  let d = host.domain in
  match frame.Ethernet.payload with
  | Request { txn; sender; target; msg } ->
      Engine.schedule ~delay:(remote_recv_cost d msg) d.engine (fun () ->
          if host.host_up then
            match Hashtbl.find_opt host.completed_replies txn with
            | Some (reply_addr, reply_packet, reply_bytes) ->
                (* Duplicate of a completed transaction: the reply frame
                   was lost; replay it. *)
                transmit host ~dst:(Ethernet.Unicast reply_addr)
                  ~payload_bytes:reply_bytes reply_packet
            | None -> (
                let live_target =
                  match Hashtbl.find_opt host.processes (Pid.local_pid target) with
                  | Some p
                    when p.proc_alive
                         && Pid.logical_host target = host.logical_host ->
                      Some p
                  | Some _ | None -> None
                in
                match (Hashtbl.mem host.delivered_txns txn, live_target) with
                | false, Some target_proc ->
                    Hashtbl.replace host.delivered_txns txn ();
                    dispatch_local_request host ~txn ~sender ~target_proc msg
                | true, Some _ ->
                    () (* duplicate; the server is still working on it *)
                | _, None ->
                    (* Never deliverable — or the serving process died
                       mid-transaction and a retransmission probed it:
                       tell the sender. A request addressed to a previous
                       incarnation of this host nacks Timeout, not
                       Nonexistent_process: this incarnation knows
                       nothing about the old one's pids, only that the
                       transaction can never complete (satellites of the
                       crash were lost with it). *)
                    let reason =
                      if Pid.logical_host target <> host.logical_host then
                        Timeout
                      else Nonexistent_process
                    in
                    transmit host ~dst:(Ethernet.Unicast frame.Ethernet.src)
                      ~payload_bytes:control_payload_bytes
                      (Nack { txn; reason })))
  | Reply_pkt { txn; replier; msg } ->
      Engine.schedule ~delay:(remote_recv_cost d msg) d.engine (fun () ->
          if host.host_up then fill_pending host ~txn (Ok (msg, replier)))
  | Nack { txn; reason } ->
      Engine.schedule ~delay:Calibration.small_packet_recv_cpu d.engine (fun () ->
          if host.host_up then fill_pending host ~txn (Error (Ipc_error reason)))
  | Getpid_query { txn; requester_addr; service } ->
      Engine.schedule
        ~delay:(Calibration.small_packet_recv_cpu +. Calibration.getpid_check_cpu)
        d.engine
        (fun () ->
          if host.host_up then
            match local_service_lookup host ~service ~origin:`Remote_query with
            | Some pid when alive d pid ->
                transmit host ~dst:(Ethernet.Unicast requester_addr)
                  ~payload_bytes:control_payload_bytes
                  (Getpid_reply { txn; pid })
            | Some _ | None -> ())
  | Getpid_reply { txn; pid } ->
      Engine.schedule ~delay:Calibration.small_packet_recv_cpu d.engine (fun () ->
          if host.host_up then
            match Hashtbl.find_opt host.getpid_waits txn with
            | None -> () (* already answered or timed out *)
            | Some settle -> settle (Some pid))
  | Move_request { txn; mv; mover_addr; len } ->
      Engine.schedule ~delay:Calibration.small_packet_recv_cpu d.engine (fun () ->
          if host.host_up then
            match Hashtbl.find_opt host.pendings txn with
            | Some { p_buffer = Some buf; _ } when len <= Bytes.length buf ->
                stream_chunks host ~dst_addr:mover_addr (Bytes.sub buf 0 len)
                  (fun ~seq:_ ~last ~chunk -> Move_data { mv; last; data = chunk })
            | Some _ | None ->
                transmit host ~dst:(Ethernet.Unicast mover_addr)
                  ~payload_bytes:control_payload_bytes
                  (Move_ack { mv; outcome = Error Bad_buffer }))
  | Move_data { mv; last; data } -> (
      match Hashtbl.find_opt host.moves mv with
      | None -> ()
      | Some op ->
          Buffer.add_bytes op.mv_buf data;
          if last then begin
            ignore (take_move host ~mv : 'm move_op option);
            Engine.schedule ~delay:Calibration.bulk_packet_recv_cpu d.engine
              (fun () ->
                if host.host_up then op.mv_fire (Ok (Buffer.to_bytes op.mv_buf)))
          end)
  | Move_to_data { txn; mv; mover_addr; seq; last; data } -> (
      match Hashtbl.find_opt host.pendings txn with
      | Some { p_buffer = Some buf; _ }
        when (seq * Calibration.bulk_packet_bytes) + Bytes.length data
             <= Bytes.length buf ->
          Bytes.blit data 0 buf (seq * Calibration.bulk_packet_bytes)
            (Bytes.length data);
          if last then
            Engine.schedule ~delay:Calibration.bulk_packet_recv_cpu d.engine
              (fun () ->
                if host.host_up then
                  transmit host ~dst:(Ethernet.Unicast mover_addr)
                    ~payload_bytes:control_payload_bytes
                    (Move_ack { mv; outcome = Ok () }))
      | Some _ | None ->
          if last then
            transmit host ~dst:(Ethernet.Unicast mover_addr)
              ~payload_bytes:control_payload_bytes
              (Move_ack { mv; outcome = Error Bad_buffer }))
  | Move_ack { mv; outcome } ->
      Engine.schedule ~delay:Calibration.small_packet_recv_cpu d.engine (fun () ->
          match take_move host ~mv with
          | None -> ()
          | Some op -> (
              match outcome with
              | Ok () -> op.mv_fire (Ok Bytes.empty)
              | Error e -> op.mv_fire (Error (Ipc_error e))))
  | Group_request { txn; sender; group; msg } ->
      Engine.schedule ~delay:(remote_recv_cost d msg) d.engine (fun () ->
          if host.host_up then
            deliver_to_members host ~txn ~sender ~group ~local_leg:false msg)

(* --- domain and host lifecycle --- *)

(* [hosts_hint] presizes the domain-wide host tables (only — per-host
   tables keep their defaults, since a hashtable's initial bucket count
   shapes its fold order and the experiments' replay depends on it).
   Every domain-level fold sorts its result before use, so the hint is
   pure capacity; large soaks (e12's 10k hosts) pass it to avoid
   rehash-storms at boot. *)
let create_domain ?(seed = 42) ?(hosts_hint = 16) ~cost engine net =
  let d =
    {
      engine;
      net;
      cost;
      next_txn = 1;
      next_mv = 1;
      next_logical_host = 1;
      next_group = 1;
      logical_hosts = Hashtbl.create hosts_hint;
      retired_logical_hosts = Hashtbl.create 16;
      all_hosts = Hashtbl.create hosts_hint;
      service_groups = Hashtbl.create 8;
      domain_prng = Vsim.Prng.create ~seed;
      trace = None;
      domain_obs = None;
      trace_of = (fun _ -> 0);
      getpid_cache_on = false;
      ipc_transactions = Vsim.Stats.Counter.create "ipc-transactions";
      tel_interval = 0.0;
      tel_next = 0.0;
      tel_groups = Hashtbl.create 64;
      tel_watched = [];
    }
  in
  d

let ipc_transaction_count d = Vsim.Stats.Counter.value d.ipc_transactions

let fresh_logical_host d =
  let lh = d.next_logical_host in
  if lh > Pid.max_logical_host then failwith "Kernel: logical host space exhausted";
  d.next_logical_host <- lh + 1;
  lh

let boot_host d ~name addr =
  if Hashtbl.mem d.all_hosts addr then
    invalid_arg "Kernel.boot_host: address in use";
  let host =
    {
      domain = d;
      addr;
      host_name = name;
      logical_host = fresh_logical_host d;
      host_up = true;
      processes = Hashtbl.create 16;
      services = Hashtbl.create 8;
      serving = Hashtbl.create 16;
      pendings = Hashtbl.create 16;
      moves = Hashtbl.create 8;
      getpid_waits = Hashtbl.create 8;
      getpid_cache = Hashtbl.create 8;
      delivered_txns = Hashtbl.create 64;
      completed_replies = Hashtbl.create 64;
      group_members = Hashtbl.create 8;
      host_prng = Vsim.Prng.split d.domain_prng;
      ipc_counts = Vobs.Deferred.create (Array.length ipc_ops);
    }
  in
  Hashtbl.replace d.all_hosts addr host;
  Hashtbl.replace d.logical_hosts host.logical_host host;
  Ethernet.attach d.net addr (fun frame -> handle_packet host frame);
  if telemetry_enabled d then register_telemetry_host d host;
  host

let host_of_addr d addr = Hashtbl.find_opt d.all_hosts addr

let hosts d =
  Hashtbl.fold (fun _ h acc -> h :: acc) d.all_hosts []
  |> List.sort (fun a b -> compare a.addr b.addr)

(* Crash a host: every process dies, every table is cleared, the wire
   stops delivering to it. Pids minted on the dead logical host become
   permanently invalid (a restarted host gets a fresh logical host id,
   modelling V's avoidance of pid reuse). *)
let crash_host host =
  if host.host_up then begin
    let d = host.domain in
    trace d "Crash host %s" host.host_name;
    host.host_up <- false;
    Ethernet.set_host_up d.net host.addr false;
    Hashtbl.remove d.logical_hosts host.logical_host;
    Hashtbl.replace d.retired_logical_hosts host.logical_host host.addr;
    let procs = Hashtbl.fold (fun _ p acc -> p :: acc) host.processes [] in
    List.iter
      (fun proc ->
        proc.proc_alive <- false;
        match proc.abort with
        | Some abort -> abort (Proc.Killed "host crash")
        | None -> ())
      procs;
    Hashtbl.reset host.processes;
    Hashtbl.reset host.services;
    Hashtbl.reset host.serving;
    (* Disarm the dead transactions' probe timers so the crash leaves no
       machinery ticking for a table that no longer exists. *)
    Hashtbl.iter (fun _ p -> cancel_pending_timers host p) host.pendings;
    Hashtbl.reset host.pendings;
    Hashtbl.iter
      (fun _ op ->
        match op.mv_timer with
        | Some tm -> Engine.cancel d.engine tm
        | None -> ())
      host.moves;
    Hashtbl.reset host.moves;
    Hashtbl.reset host.getpid_waits;
    Hashtbl.reset host.getpid_cache;
    Hashtbl.reset host.delivered_txns;
    Hashtbl.reset host.completed_replies;
    Hashtbl.iter
      (fun group _ -> Ethernet.leave_group d.net ~group ~addr:host.addr)
      host.group_members;
    Hashtbl.reset host.group_members
  end

let restart_host host =
  if host.host_up then invalid_arg "Kernel.restart_host: host is up";
  let d = host.domain in
  trace d "Restart host %s" host.host_name;
  host.logical_host <- fresh_logical_host d;
  host.host_up <- true;
  Hashtbl.replace d.logical_hosts host.logical_host host;
  Ethernet.set_host_up d.net host.addr true

