(* ipc-soak: the E14 Phase B shape — echo servers and cohort clients
   on the switched gigabit fabric — sized so host cost is visible.
   Every transaction is a remote Send-Receive-Reply addressed by pid to
   a server behind another edge switch, so engine, network and kernel
   do nearly all the work and naming does none. *)

open Common
module K = Vkernel.Kernel
module E = Vnet.Ethernet
module T = Vnet.Topology
module C = Vnet.Calibration
module En = Vsim.Engine
module Prng = Vsim.Prng

type shape = {
  hosts : int;  (** half echo servers, half client hosts *)
  txns : int;
  cohort : int;  (** virtual clients aggregated per client host *)
  mean_gap_ms : float;  (** per virtual client *)
  fan_in : int;
}

let shape = function
  | Full ->
      {
        hosts = 10_000;
        txns = 100_000;
        cohort = 100;
        mean_gap_ms = 10_000.0;
        fan_in = 64;
      }
  | Tiny ->
      {
        hosts = 128;
        txns = 1_000;
        cohort = 10;
        mean_gap_ms = 1_000.0;
        fan_in = 16;
      }

(* The same gigabit links E12 and E14 soak on, explicitly switched. *)
let gigabit =
  {
    C.name = "1Gb switched";
    bandwidth_bps = 1.0e9;
    header_bytes = 64;
    propagation_ms = 0.005;
  }

let payload_chars = 16

let raw_cost =
  { K.payload_bytes = String.length; K.segment_bytes = (fun _ -> 0) }

(* Everything the program is handed, per client host: the cohort's
   inter-arrival gaps, the server each request goes to, and the request
   bytes (which the echo must return unchanged). *)
type inputs = {
  shape : shape;
  gaps : float array array;
  targets : int array array;
  payloads : string array array;
}

let servers_of s = s.hosts / 2
let clients_of s = s.hosts - servers_of s
let server_addr j = j + 1
let client_addr s i = servers_of s + i + 1

let generate size ~seed =
  let s = shape size in
  let servers = servers_of s and clients = clients_of s in
  let prng = Prng.create ~seed in
  let hex = "0123456789abcdef" in
  let per_client i =
    (s.txns / clients) + if i < s.txns mod clients then 1 else 0
  in
  let gaps = Array.make clients [||]
  and targets = Array.make clients [||]
  and payloads = Array.make clients [||] in
  for i = 0 to clients - 1 do
    let n = per_client i in
    let cohort =
      Vworkload.Generator.cohort ~size:s.cohort ~mean_gap_ms:s.mean_gap_ms
        (Prng.split prng)
    in
    let edge = T.edge_of ~fan_in:s.fan_in (client_addr s i) in
    gaps.(i) <-
      Array.init n (fun _ -> Vworkload.Generator.cohort_next_gap cohort);
    targets.(i) <-
      Array.init n (fun _ ->
          (* A uniform server behind another edge switch, so every
             transaction crosses the spine. *)
          let rec pick () =
            let j = Prng.int prng servers in
            if T.edge_of ~fan_in:s.fan_in (server_addr j) = edge then pick ()
            else j
          in
          pick ());
    payloads.(i) <-
      Array.init n (fun _ ->
          String.init payload_chars (fun _ -> hex.[Prng.int prng 16]))
  done;
  { shape = s; gaps; targets; payloads }

let digest i =
  Digest.to_hex
    (Digest.string (Marshal.to_string (i.gaps, i.targets, i.payloads) []))

let attempted i = Array.fold_left (fun acc a -> acc + Array.length a) 0 i.gaps

let echo_server host =
  K.spawn host ~name:"echo" (fun self ->
      let rec loop () =
        let msg, sender = K.receive self in
        ignore (K.reply self ~to_:sender msg);
        loop ()
      in
      loop ())

let setup ?spans ?(tamper = Honest) inputs =
  let s = inputs.shape in
  let servers_n = servers_of s and clients_n = clients_of s in
  let eng = En.create () in
  let net =
    E.create ~config:gigabit ~topology:(T.switched ~fan_in:s.fan_in) eng
  in
  let domain =
    K.create_domain ~hosts_hint:(2 * s.hosts) ~cost:raw_cost eng net
  in
  (* The traced run attaches a metrics-only hub: the kernel counts
     forwards and group sends there. Bookkeeping only. *)
  let hub =
    match spans with
    | None -> None
    | Some _ ->
        let hub = Vobs.Hub.create () in
        K.set_obs domain hub;
        Some hub
  in
  let servers =
    Array.init servers_n (fun j ->
        echo_server
          (K.boot_host domain ~name:(Fmt.str "srv%d" j) (server_addr j)))
  in
  let total = attempted inputs in
  let latencies = Array.make total 0.0 in
  let failures = Failures.create () in
  let base = ref 0 in
  for i = 0 to clients_n - 1 do
    let host =
      K.boot_host domain ~name:(Fmt.str "cli%d" i) (client_addr s i)
    in
    let gaps = inputs.gaps.(i)
    and targets = inputs.targets.(i)
    and payloads = inputs.payloads.(i) in
    let first = !base in
    base := !base + Array.length gaps;
    ignore
      (K.spawn host ~name:"cohort" (fun self ->
           for k = 0 to Array.length gaps - 1 do
             Vsim.Proc.delay eng gaps.(k);
             let id = first + k in
             let server = servers.(targets.(k)) in
             let request = payloads.(k) in
             let expected =
               if tamper = Wrong_echo && id = 0 then request ^ "!" else request
             in
             let t0 = En.now eng in
             let result = K.send self server request in
             let t1 = En.now eng in
             latencies.(id) <- t1 -. t0;
             (match spans with
             | Some sp ->
                 Spans.record sp ~id:(id + 1) ~route:Uncached ~start:t0 ~stop:t1
             | None -> ());
             match result with
             | Ok (reply, from) ->
                 if
                   not
                     (String.equal reply expected
                     && Vkernel.Pid.equal from server)
                 then
                   Failures.addf failures "echo %d: sent %S, got %S from %a" id
                     request reply Vkernel.Pid.pp from
             | Error e ->
                 Failures.addf failures "echo %d: %a" id K.pp_error e
           done))
  done;
  let finish () =
    let counters =
      match hub with
      | None -> []
      | Some hub ->
          fabric_counters ~txns:total
            ~ipc_txns:(K.ipc_transaction_count domain)
            eng net hub
    in
    {
      attempted = total;
      failed = failures.Failures.count;
      latencies;
      counters;
      notes = Failures.notes failures;
    }
  in
  { engine = eng; run = (fun () -> En.run eng); finish }
