(* The standard name-mapping procedure (§5.4) and the generic CSNH
   server loop.

   Any server implementing one or more name spaces conforms to this
   procedure: interpret components of the uninterpreted part of the name
   left-to-right in a running CurrentContext; when a component resolves
   to a context implemented by another server, rewrite the standard
   fields (name index, context id) and forward the request — which the
   server need not otherwise understand — to that server. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Calibration = Vnet.Calibration

(* What one name component means inside a given context. *)
type lookup_result =
  | Descend of Context.id  (** a context on this same server *)
  | Cross of Context.spec  (** a pointer to a context on another server *)
  | Stop  (** not a context here: a leaf object, or absent *)

type outcome =
  | Local of Context.id * string list
      (** interpretation ends here: final context and the components not
          consumed by context resolution (possibly none) *)
  | Forward of Context.spec * Csname.req
      (** crossed into another server's context: forward the request,
          rewritten with the new index and context id *)
  | Fail of Reply.code

(* [walk ~valid_context ~lookup req] runs the §5.4 procedure. Does not
   handle '[prefix]' syntax: the client run-time routes prefixed names
   to the context prefix server, so another server receiving one
   rejects it. *)
let walk ~valid_context ~lookup req =
  match Csname.validate req with
  | Error code -> Fail code
  | Ok () ->
      if Csname.starts_with_prefix req then Fail Reply.Illegal_name
      else if not (valid_context req.Csname.context) then Fail Reply.Bad_context
      else begin
        let rec loop ctx req comps =
          match comps with
          | [] -> Local (ctx, [])
          | component :: rest -> (
              match lookup ctx component with
              | Descend ctx' -> loop ctx' (Csname.advance_past req component) rest
              | Cross spec ->
                  let req = Csname.advance_past req component in
                  Forward (spec, { req with Csname.context = spec.Context.context })
              | Stop -> Local (ctx, comps))
        in
        loop req.Csname.context req (Csname.components (Csname.remaining req))
      end

(* --- the generic server loop --- *)

type handlers = {
  valid_context : Context.id -> bool;
  lookup : Context.id -> string -> lookup_result;
      (** one component in one context; charged [component_lookup_cpu] *)
  handle_csname :
    sender:Pid.t -> Vmsg.t -> Csname.req -> Context.id -> string list -> Vmsg.t;
      (** a CSname request whose interpretation ended on this server:
          [ctx] is the final context and the string list the unconsumed
          components; returns the reply *)
  handle_other : sender:Pid.t -> Vmsg.t -> Vmsg.t option;
      (** non-CSname requests; [None] means not implemented *)
}

(* Statistics a CSNH server keeps about its own processing, used by the
   measurement harness to separate protocol cost from server-specific
   cost (the paper's Open figures exclude "server-specific actions"). *)
type server_stats = {
  requests : Vsim.Stats.Counter.t;
  forwards : Vsim.Stats.Counter.t;
  specific_ms : Vsim.Stats.Series.t;
      (** per-request processing time beyond the common CSname handling *)
}

let make_stats name =
  {
    requests = Vsim.Stats.Counter.create (name ^ ".requests");
    forwards = Vsim.Stats.Counter.create (name ^ ".forwards");
    specific_ms = Vsim.Stats.Series.create (name ^ ".specific-ms");
  }

(* How far into the name this hop's interpretation reached: everything
   up to the components it did not consume. *)
let consumed_index req remaining =
  let total = String.length req.Csname.name in
  let index_to =
    match remaining with
    | [] -> total
    | _ -> total - String.length (Csname.join remaining)
  in
  max req.Csname.index (min index_to total)

(* --- observability: per-server counters and one span per hop --- *)

(* Count one operation against (host, this server's name, op) when a
   hub is attached. *)
let metric self op =
  Vobs.Hub.count
    (Kernel.obs (Kernel.domain_of_self self))
    ~host:(Kernel.self_host_name self) ~server:(Kernel.self_name self) ~op

(* A traced request's span for this server's hop, with the hub that
   stores it. Every CSNH server — the generic loop below, the prefix
   server, the domain servers — opens, closes and re-parents its hop
   through these, off the simulation clock. *)
module Hop = struct
  type t = (Vobs.Hub.t * Vobs.Span.t) option

  let now self =
    Vsim.Engine.now (Kernel.engine_of_domain (Kernel.domain_of_self self))

  (* An untraced request never gets a span, so the op name is only
     looked up for traced ones. *)
  let start self ?op (msg : Vmsg.t) (req : Csname.req) =
    match Kernel.obs (Kernel.domain_of_self self) with
    | Some hub when Vobs.Span.is_traced req.Csname.trace -> (
        let op =
          match op with Some op -> op | None -> Vmsg.Op.to_string msg.Vmsg.code
        in
        match
          Vobs.Hub.start_span hub ~ctx:req.Csname.trace ~now:(now self) ~op
            ~host:(Kernel.self_host_name self) ~server:(Kernel.self_name self)
            ~pid:(Pid.to_int (Kernel.self_pid self))
            ~context:req.Csname.context ~index_from:req.Csname.index
        with
        | Some span -> Some (hub, span)
        | None -> None)
    | Some _ | None -> None

  let finish self hop ?index_to outcome =
    match hop with
    | Some (hub, span) ->
        Vobs.Hub.finish hub span ~now:(now self) ?index_to ~outcome ()
    | None -> ()

  (* Attach a request this hop sends on to its span, so the next
     server's span links back here. *)
  let reparent self hop (req : Csname.req) =
    match hop with
    | Some (_, span) ->
        { req with Csname.trace = Vobs.Hub.child_ctx span ~now:(now self) }
    | None -> req

  let forward self hop (req : Csname.req) =
    finish self hop ~index_to:req.Csname.index "forward";
    reparent self hop req
end

(* Handle one request according to the protocol; replies or forwards as
   appropriate. Exposed so servers with custom receive loops (e.g. the
   prefix server) can reuse it.

   Observability (when a hub is attached to the domain): every CSname
   request increments per-operation counters keyed by this server, and
   a traced request gets one span per hop, its parent link following
   the Forward chain. All of it is bookkeeping off the simulation
   clock, so timings are identical with tracing on or off. *)
let handle_request self handlers stats ~sender (msg : Vmsg.t) =
  let engine = Kernel.engine_of_domain (Kernel.domain_of_self self) in
  let now () = Vsim.Engine.now engine in
  let charge ms = if ms > 0.0 then Vsim.Proc.delay engine ms in
  Vsim.Stats.Counter.incr stats.requests;
  let reply_with m = ignore (Kernel.reply self ~to_:sender m) in
  match msg.Vmsg.name with
  | Some req when Vmsg.Op.is_csname_request msg.Vmsg.code ->
      let t0 = now () in
      metric self (Vmsg.Op.to_string msg.Vmsg.code);
      let hop = Hop.start self msg req in
      charge Calibration.csname_common_cpu;
      let lookup ctx component =
        metric self "lookup";
        charge Calibration.component_lookup_cpu;
        handlers.lookup ctx component
      in
      (match walk ~valid_context:handlers.valid_context ~lookup req with
      | Fail code ->
          Hop.finish self hop (Reply.to_string code);
          reply_with (Vmsg.reply code)
      | Forward (spec, req') ->
          Vsim.Stats.Counter.incr stats.forwards;
          metric self "forward";
          let msg' = Vmsg.with_name msg (Hop.forward self hop req') in
          (match
             Kernel.forward self ~from_:sender ~to_:spec.Context.server msg'
           with
          | Ok () -> ()
          | Error _ ->
              (* The kernel already failed the sender's transaction if it
                 could; nothing more to do here. *)
              ())
      | Local (ctx, remaining) ->
          let reply = handlers.handle_csname ~sender msg req ctx remaining in
          Vsim.Stats.Series.add stats.specific_ms
            (now () -. t0 -. Calibration.csname_common_cpu);
          let outcome =
            match Vmsg.reply_code reply with
            | Some code -> Reply.to_string code
            | None -> "reply"
          in
          let index_to = consumed_index req remaining in
          (* Stamp the resolved binding into successful replies so
             caching clients learn (name-prefix -> server, context)
             pairs for free. The stamp fits the 32-byte message proper
             — no wire bytes, no clock, so non-caching clients see
             byte- and time-identical behaviour. *)
          let reply =
            if Vmsg.succeeded reply && index_to > 0 then
              Vmsg.with_binding reply
                {
                  Vmsg.upto = index_to;
                  spec = Context.spec ~server:(Kernel.self_pid self) ~context:ctx;
                }
            else reply
          in
          Hop.finish self hop ~index_to outcome;
          reply_with reply)
  | Some _ | None -> (
      metric self (Vmsg.Op.to_string msg.Vmsg.code);
      match handlers.handle_other ~sender msg with
      | Some reply -> reply_with reply
      | None -> reply_with (Vmsg.reply Reply.Bad_operation))

(* Run a CSNH server forever. *)
let serve self ?(stats = make_stats "csnh") handlers =
  let rec loop () =
    let msg, sender = Kernel.receive self in
    handle_request self handlers stats ~sender msg;
    loop ()
  in
  loop ()
