(* The standard run-time library (§6): the procedural interface programs
   use for system services, hiding the message interface.

   Every CSname-handling routine goes through one common routing
   routine: if the name starts with '[', the request is sent to the
   workstation's context prefix server (in its default context);
   otherwise it is sent directly to the server implementing the current
   context, with the current context identifier filled into the message.
   "The code that checks for the '[' character is localized in a single
   common routine."

   The routing routine optionally consults a client-side
   name-resolution cache ({!Vnaming.Name_cache}): a bounded LRU of
   name-prefix -> (server, context) bindings, learned from the bindings
   servers stamp into successful replies, and validated on use — a
   reply proving a cached binding stale evicts it, falls back one
   prefix level (the next-deepest cached prefix, or the prefix server)
   and retries. Off by default: the paper argues against client-side
   name caching (§2.2) precisely because of the consistency problem the
   on-use protocol addresses. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid
module Service = Vkernel.Service
module Calibration = Vnet.Calibration
open Vnaming

type resilience_stats = {
  mutable retries : int;  (* re-issued attempts *)
  mutable retried_ok : int;  (* operations that succeeded after >= 1 retry *)
  mutable unavailable : int;  (* operations surfaced as [Unavailable] *)
}

type env = {
  self : Vmsg.t Kernel.self;
  prefix_server : Pid.t;
  mutable current : Context.spec;
  (* The name [current] was last bound from ([change_context]); the
     retry loop uses it to re-resolve a pinned context whose server
     crashed, so relative names fail over too. *)
  mutable current_name : string option;
  mutable rebinding : bool;
  (* The client-side name-resolution cache; consulted (and fed) only
     when [name_cache_enabled]. *)
  mutable name_cache_enabled : bool;
  mutable name_cache : Name_cache.t;
  (* The per-host caching resolver role ({!Vdomains.Resolver}); when
     set, '[prefix]'-absolute names it [handles] are resolved by an
     iterative walk of the federated domain tree instead of the prefix
     server, with TTL/negative/stale caching. Off ([None]) by default. *)
  mutable resolver : Vdomains.Resolver.t option;
  (* The resilience policy ([Vio.Resilience]); off ([None]) by default.
     The PRNG drives backoff jitter only, so a seeded run replays the
     exact retry schedule. *)
  mutable resilience : Vio.Resilience.policy option;
  mutable retry_prng : Vsim.Prng.t;
  rstats : resilience_stats;
}

let engine env = Kernel.engine_of_domain (Kernel.domain_of_self env.self)
let self env = env.self
let set_current_context env spec =
  env.current <- spec;
  env.current_name <- None

let enable_name_cache env ?capacity flag =
  (match capacity with
  | Some c -> env.name_cache <- Name_cache.create ~capacity:c ()
  | None -> ());
  env.name_cache_enabled <- flag;
  if not flag then Name_cache.clear env.name_cache

(* Backwards-compatible alias from when the cache held only whole
   '[prefix]' bindings. *)
let enable_prefix_cache env flag = enable_name_cache env flag

let name_cache env = env.name_cache
let name_cache_stats env = Name_cache.stats env.name_cache

let set_resolver env r = env.resolver <- Some r
let clear_resolver env = env.resolver <- None
let resolver env = env.resolver
let cache_hit_count env = (name_cache_stats env).Name_cache.hits
let cache_stale_count env = (name_cache_stats env).Name_cache.stale

let set_resilience env ?(policy = Vio.Resilience.default) ~seed () =
  env.resilience <- Some policy;
  env.retry_prng <- Vsim.Prng.create ~seed

let resilience env = env.resilience

let resilience_stats env = env.rstats

(* [make self ~current] builds a program environment: the program is
   passed its current context; the workstation's context prefix server
   is bound via the local service table. *)
let make self ~current =
  match Kernel.get_pid self ~service:Service.Id.context_prefix Service.Local with
  | None -> Error (Vio.Verr.Denied Reply.No_server)
  | Some prefix_server ->
      Ok
        {
          self;
          prefix_server;
          current;
          current_name = None;
          rebinding = false;
          name_cache_enabled = false;
          name_cache = Name_cache.create ();
          resolver = None;
          resilience = None;
          retry_prng = Vsim.Prng.create ~seed:1;
          rstats = { retries = 0; retried_ok = 0; unavailable = 0 };
        }

(* --- observability ---

   Every named operation gets (when a hub is attached to the domain) a
   latency histogram sample keyed (workstation, "runtime", op), and —
   when tracing is on — one root span per operation; the request sent
   carries the root's child context, so server-side hops hang under it.
   One root span covers all retry attempts of an operation; when the
   first attempt used a cached binding, the root's op carries a
   "[cached]" tag. Cache counters land under (workstation, "runtime")
   with cache-prefixed op names. All bookkeeping: nothing here touches
   simulated time. *)

let obs_hub env = Kernel.obs (Kernel.domain_of_self env.self)

let obs_runtime_metric env op =
  Vobs.Hub.count (obs_hub env) ~host:(Kernel.self_host_name env.self)
    ~server:"runtime" ~op

let obs_root env ~op ~context =
  match obs_hub env with
  | None -> None
  | Some hub ->
      let t0 = Vsim.Engine.now (engine env) in
      let ctx = Vobs.Hub.start_trace hub ~now:t0 in
      Option.map
        (fun span -> (hub, span))
        (Vobs.Hub.start_span hub ~ctx ~now:t0 ~op:("client:" ^ op)
           ~host:(Kernel.self_host_name env.self)
           ~server:"runtime"
           ~pid:(Pid.to_int (Kernel.self_pid env.self))
           ~context ~index_from:0)

(* Attach the request of one attempt to the root span. *)
let obs_attach env root (req : Csname.req) =
  match root with
  | None -> req
  | Some (_, span) ->
      let now = Vsim.Engine.now (engine env) in
      { req with Csname.trace = Vobs.Hub.child_ctx span ~now }

let obs_done env ~op ~t0 root outcome =
  (match root with
  | None -> ()
  | Some (hub, span) ->
      Vobs.Hub.finish hub span
        ~now:(Vsim.Engine.now (engine env))
        ~outcome ());
  match obs_hub env with
  | None -> ()
  | Some hub ->
      let now = Vsim.Engine.now (engine env) in
      (* The root trace id rides into the latency histogram as an
         exemplar candidate (when exemplars are on), linking an
         aggregate's outlier bucket back to its span tree. *)
      let trace =
        match root with
        | Some (_, span) -> Some span.Vobs.Span.trace_id
        | None -> None
      in
      Vobs.Metrics.observe ?trace (Vobs.Hub.metrics hub)
        ~host:(Kernel.self_host_name env.self)
        ~server:"runtime" ~op (now -. t0);
      (* Every finished client operation feeds the SLO engine when one
         is attached: availability from the outcome, latency from the
         whole-operation wall time (retries included). *)
      (match Vobs.Hub.slo hub with
      | None -> ()
      | Some slo ->
          Vobs.Slo.observe slo ~now
            ~ok:(outcome = Reply.to_string Reply.Ok)
            ~latency_ms:(now -. t0))

let outcome_of_result = function
  | Ok _ -> Reply.to_string Reply.Ok
  | Error e -> Vio.Verr.to_string e

let obs_tag root tag =
  match root with
  | None -> ()
  | Some ((_ : Vobs.Hub.t), span) -> Vobs.Span.add_tag span tag

let root_trace = function
  | None -> 0
  | Some ((_ : Vobs.Hub.t), span) -> span.Vobs.Span.trace_id

(* Flight-recorder events from the client runtime (retries, failovers,
   exhausted budgets), stamped with the operation's root trace. The
   label is only built when an attached hub's recorder is enabled. *)
let obs_event env ?(trace = 0) fmt =
  Vobs.Hub.eventf (obs_hub env) ~at:(Vsim.Engine.now (engine env))
    ~cat:Vobs.Eventlog.Client ~host:(Kernel.self_host_name env.self) ~trace fmt

(* The resilience retry loop around one named operation. [run] is a
   whole routed attempt (including the stale-retry cascade); on a
   retryable failure it is re-issued after a jittered exponential
   backoff, within the policy's deadline, all under the same obs root
   span (tagged "fault" on the first retry and "retry:n" per attempt).
   Re-running [run] routes afresh, so a crashed server's successor is
   picked up by GetPid re-resolution through the prefix server's
   logical bindings. When the policy gives up, the caller sees a
   bounded [Unavailable] instead of an indefinite hang. Off by default
   ([env.resilience = None]): behaviour and PRNG draws are then exactly
   as before. *)

(* Forward reference, assigned below [resolve]: re-resolve the pinned
   current context on a transport-level retry. *)
let rebind_current = ref (fun (_ : env) -> ())

let with_resilience env ~root ~t0 run =
  match env.resilience with
  | None -> run ()
  | Some policy ->
      let rec loop attempt =
        match run () with
        | Ok _ as ok ->
            if attempt > 1 then begin
              env.rstats.retried_ok <- env.rstats.retried_ok + 1;
              obs_runtime_metric env "retry-ok"
            end;
            ok
        | Error e -> (
            let elapsed = Vsim.Engine.now (engine env) -. t0 in
            match
              Vio.Resilience.next_step policy env.retry_prng ~attempt
                ~elapsed_ms:elapsed e
            with
            | Vio.Resilience.Retry_after wait ->
                env.rstats.retries <- env.rstats.retries + 1;
                obs_runtime_metric env "retry";
                if attempt = 1 then obs_tag root "fault";
                obs_tag root (Printf.sprintf "retry:%d" attempt);
                obs_event env ~trace:(root_trace root)
                  "retry attempt %d after %a (wait %.1fms)" attempt
                  Vio.Verr.pp e wait;
                Vsim.Proc.delay (engine env) wait;
                (* A transport failure may mean the current context's
                   server died: re-resolve it before routing again. *)
                if Vio.Resilience.rebind_worthy e then !rebind_current env;
                loop (attempt + 1)
            | Vio.Resilience.Give_up ->
                let err = Vio.Resilience.give_up ~attempts:attempt e in
                (match err with
                | Vio.Verr.Unavailable _ ->
                    env.rstats.unavailable <- env.rstats.unavailable + 1;
                    obs_runtime_metric env "unavailable";
                    obs_event env ~trace:(root_trace root)
                      "unavailable after %d attempt(s)" attempt
                | _ -> ());
                Error err)
      in
      loop 1

(* --- the single common routing routine --- *)

type route = { target : Pid.t; req : Csname.req; cached_prefix : string option }

let skip_separators name i =
  let rec loop i =
    if i < String.length name && name.[i] = Csname.separator then loop (i + 1)
    else i
  in
  loop i

(* The prefix-server leg of routing: deepest cached prefix when the
   cache is on, the workstation's prefix server otherwise. *)
let route_prefixed env name req =
  let cached =
    if env.name_cache_enabled then Name_cache.find env.name_cache name
    else None
  in
  match cached with
  | Some (key, spec) ->
      (* Deepest cached prefix: start interpretation just past it, in
         the cached context, directly at the implementing server. *)
      obs_runtime_metric env "cache-hit";
      {
        target = spec.Context.server;
        req =
          {
            req with
            Csname.index = skip_separators name (String.length key);
            context = spec.Context.context;
          };
        cached_prefix = Some key;
      }
  | None ->
      if env.name_cache_enabled then obs_runtime_metric env "cache-miss";
      { target = env.prefix_server; req; cached_prefix = None }

let route env name =
  let req = Csname.make_req name in
  if Csname.starts_with_prefix req then begin
    match env.resolver with
    | Some r when Vdomains.Resolver.handles r name -> (
        (* The resolver role: an iterative walk of the domain tree
           (cached, TTL'd), landing the request directly where
           interpretation continues. On any resolver failure, fall back
           to the prefix-server route so the operation still gets its
           authoritative answer. *)
        match Vdomains.Resolver.resolve r env.self name with
        | Ok o ->
            let open Vdomains.Resolver in
            obs_runtime_metric env
              (if o.queries = 0 then "resolver-hit" else "resolver-walk");
            if o.served_stale then obs_runtime_metric env "resolver-stale";
            {
              target = o.spec.Context.server;
              req =
                {
                  req with
                  Csname.index = o.index;
                  context = o.spec.Context.context;
                };
              cached_prefix = o.cache_key;
            }
        | Error _ ->
            obs_runtime_metric env "resolver-fallback";
            route_prefixed env name req)
    | Some _ | None -> route_prefixed env name req
  end
  else
    {
      target = env.current.Context.server;
      req = { req with Csname.context = env.current.Context.context };
      cached_prefix = None;
    }

(* Routing with the cache bypassed: the fallback of last resort after a
   failure that no cached binding explains. *)
let route_uncached env name =
  let req = Csname.make_req name in
  if Csname.starts_with_prefix req then
    { target = env.prefix_server; req; cached_prefix = None }
  else
    {
      target = env.current.Context.server;
      req = { req with Csname.context = env.current.Context.context };
      cached_prefix = None;
    }

let charge_stub env = Vsim.Proc.delay (engine env) Calibration.client_stub_cpu

(* Failover accounting: when a later resilience attempt routes to a
   different server pid than the one before it — the re-resolution found
   a successor or a surviving replica — tag the operation's root span
   "failover:n" (n counts failovers within this operation) and bump the
   (workstation, "runtime", "failover") counter. Route changes inside
   the stale-cache cascade are not failovers; only cross-attempt changes
   count. *)
let note_failover env ~root ~last_target ~failovers (r : route) =
  (match !last_target with
  | Some p when not (Pid.equal p r.target) ->
      incr failovers;
      obs_runtime_metric env "failover";
      obs_tag root (Printf.sprintf "failover:%d" !failovers);
      obs_event env ~trace:(root_trace root) "failover %d -> pid %d" !failovers
        (Pid.to_int r.target)
  | Some _ | None -> ());
  last_target := Some r.target

(* Learn a binding a server stamped into a successful reply. Only
   '[prefix]'-absolute names are cached: a relative name's meaning moves
   with the current context, so a string-keyed binding for it would be
   wrong the moment the program changed context. *)
let learn_from_reply env name (binding : Vmsg.binding option) =
  if String.length name > 0 && name.[0] = Csname.prefix_open then
    match binding with
    | Some { Vmsg.upto; spec } when upto > 0 && upto <= String.length name ->
        let key = String.sub name 0 upto in
        (* A resolver learns the stamp too (under its TTL): a forward
           chain's landing point short-cuts the next walk. *)
        (match env.resolver with
        | Some r when Vdomains.Resolver.handles r name ->
            Vdomains.Resolver.learn r
              ~now:(Vsim.Engine.now (engine env))
              key spec
        | Some _ | None -> ());
        if env.name_cache_enabled then begin
          (match Name_cache.learn env.name_cache key spec with
          | Some _evicted -> obs_runtime_metric env "cache-evict"
          | None -> ());
          obs_runtime_metric env "cache-learn"
        end
    | _ -> ()

(* Run [attempt] along routes for [name], generalizing the stale-retry
   loop: a failure that suggests a stale cached binding ([Bad_context],
   [Not_found], or an IPC failure) evicts the binding used and re-routes
   — landing on the next-deepest cached prefix, or ultimately on the
   prefix server. A final IPC failure with no cached binding in play
   gets one fresh pass: a server-side cached resolution (the prefix
   server's GetPid cache) invalidates itself on the failed forward, so
   retrying through it can succeed. If every attempt fails, the first
   error is returned, as before. *)
let with_stale_retry env name ~first attempt =
  let resolver_handled =
    match env.resolver with
    | Some r -> Vdomains.Resolver.handles r name
    | None -> false
  in
  let rec go r ~fresh_retried ~resolver_retried ~first_err =
    match attempt r with
    | Ok _ as ok -> ok
    | Error e -> (
        let first_err =
          match first_err with None -> Some e | Some _ -> first_err
        in
        let stale_signal =
          match e with
          | Vio.Verr.Ipc _
          | Vio.Verr.Denied (Reply.Bad_context | Reply.Not_found) ->
              true
          | _ -> false
        in
        match r.cached_prefix with
        | Some key when stale_signal ->
            (* On-use invalidation reaches whichever cache supplied the
               binding: the key lives in the resolver's cache for
               resolver-routed names, in the client name cache
               otherwise. *)
            ignore (Name_cache.invalidate env.name_cache key);
            (match env.resolver with
            | Some res when resolver_handled ->
                ignore (Vdomains.Resolver.invalidate res key)
            | Some _ | None -> ());
            obs_runtime_metric env "cache-stale";
            if resolver_handled && resolver_retried then
              (* A fresh walk already re-derived this binding and it
                 still failed: the tree's answer is wrong (a dead leaf
                 server), not stale. Unlike the name cache there is no
                 shallower level to fall back to, so drop to the
                 uncached prefix-server route of last resort. *)
              go (route_uncached env name) ~fresh_retried:true
                ~resolver_retried ~first_err
            else
              go (route env name) ~fresh_retried ~resolver_retried:true
                ~first_err
        | _ ->
            let ipc = match e with Vio.Verr.Ipc _ -> true | _ -> false in
            if ipc && env.name_cache_enabled && not fresh_retried then
              go (route_uncached env name) ~fresh_retried:true
                ~resolver_retried ~first_err
            else Error (Option.value first_err ~default:e))
  in
  go first ~fresh_retried:false ~resolver_retried:false ~first_err:None

(* Send a CSname request along the route; on a failure that suggests a
   stale cached binding, invalidate, fall back and retry. *)
let transact_name env ~code ?payload ?extra_bytes name =
  charge_stub env;
  let op = Vmsg.Op.to_string code in
  let t0 = Vsim.Engine.now (engine env) in
  let first = route env name in
  let span_op = if first.cached_prefix <> None then op ^ "[cached]" else op in
  let root = obs_root env ~op:span_op ~context:env.current.Context.context in
  let attempt r =
    let req = obs_attach env root r.req in
    let msg = Vmsg.request ~name:req ?payload ?extra_bytes code in
    (* A resilience-enabled client stamps its absolute operation
       deadline so a loaded server's admission control can drop the
       request rather than queue it past the point of usefulness. *)
    let msg =
      match env.resilience with
      | Some p -> Vmsg.with_deadline msg (t0 +. p.Vio.Resilience.deadline_ms)
      | None -> msg
    in
    match Kernel.send env.self r.target msg with
    | Error e -> Error (Vio.Verr.Ipc e)
    | Ok (reply, replier) -> (
        match Verr_reply.check reply with
        | Ok m ->
            learn_from_reply env name m.Vmsg.binding;
            Ok (m, replier)
        | Error e -> Error e)
  in
  let first_route = ref (Some first) in
  let last_target = ref None in
  let failovers = ref 0 in
  let result =
    with_resilience env ~root ~t0 (fun () ->
        (* The first resilience attempt reuses the route already taken
           (whose cache metrics are counted); later ones route afresh so
           re-resolution can land on a successor server. *)
        let r =
          match !first_route with
          | Some r ->
              first_route := None;
              r
          | None -> route env name
        in
        note_failover env ~root ~last_target ~failovers r;
        with_stale_retry env name ~first:r attempt)
  in
  obs_done env ~op ~t0 root (outcome_of_result result);
  result

(* --- naming operations --- *)

(* Map a name that denotes a context to its (server-pid, context-id).
   With the cache enabled, the binding is learned from the stamp the
   answering server put into the reply. *)
let resolve env name =
  match transact_name env ~code:Vmsg.Op.map_context name with
  | Error e -> Error e
  | Ok (reply, _) -> (
      match reply.Vmsg.payload with
      | Vmsg.P_context_spec spec -> Ok spec
      | _ -> Error (Vio.Verr.Protocol "MapContext reply carried no context"))

(* The analogue of Unix chdir (§6). *)
let change_context env name =
  match resolve env name with
  | Error e -> Error e
  | Ok spec ->
      env.current <- spec;
      env.current_name <- Some name;
      Ok spec

(* On a transport-level retry, re-resolve the current context by the
   name it was last bound from: if its server crashed, the prefix
   server's logical bindings (refreshed via GetPid) point at the live
   successor, so relative names recover without a manual rebind. The
   probe is one-shot — the policy is disabled for its duration so it
   cannot recurse into the retry loop. *)
let () =
  rebind_current :=
    fun env ->
      match env.current_name with
      | None -> ()
      | Some name ->
          if not env.rebinding then begin
            env.rebinding <- true;
            let saved = env.resilience in
            env.resilience <- None;
            (match resolve env name with
            | Ok spec when spec <> env.current ->
                env.current <- spec;
                obs_runtime_metric env "rebind"
            | Ok _ | Error _ -> ());
            env.resilience <- saved;
            env.rebinding <- false
          end

(* Determine a printable CSname for the current context (§6 inverse
   mapping): ask the prefix server first, then the implementing server
   for its local path. *)
let current_context_name env =
  charge_stub env;
  let ask target payload =
    match Kernel.send env.self target payload with
    | Error e -> Error (Vio.Verr.Ipc e)
    | Ok (reply, _) -> (
        match (Vmsg.reply_code reply, reply.Vmsg.payload) with
        | Some Reply.Ok, Vmsg.P_name n -> Ok n
        | Some Reply.Ok, _ -> Error (Vio.Verr.Protocol "inverse map reply")
        | Some code, _ -> Error (Vio.Verr.Denied code)
        | None, _ -> Error (Vio.Verr.Protocol "expected reply"))
  in
  let via_prefix =
    ask env.prefix_server
      (Vmsg.request ~payload:(Vmsg.P_context_spec env.current)
         Vmsg.Op.inverse_map_context)
  in
  let via_server () =
    ask env.current.Context.server
      (Vmsg.request
         ~payload:(Vmsg.P_context_id env.current.Context.context)
         Vmsg.Op.inverse_map_context)
  in
  match via_prefix with
  | Ok prefix_name -> (
      (* Append the server-local path when available. *)
      match via_server () with
      | Ok "/" | Error _ -> Ok prefix_name
      | Ok path -> Ok (prefix_name ^ path))
  | Error _ -> via_server ()

(* --- file-like access (the V I/O protocol over the naming layer) --- *)

let open_ env ~mode name =
  (* The stub charge happens inside [Vio.Client.open_at]. *)
  let op = Vmsg.Op.to_string Vmsg.Op.open_instance in
  let t0 = Vsim.Engine.now (engine env) in
  let first = route env name in
  let span_op = if first.cached_prefix <> None then op ^ "[cached]" else op in
  let root = obs_root env ~op:span_op ~context:env.current.Context.context in
  let attempt r =
    let req = obs_attach env root r.req in
    let deadline =
      Option.map
        (fun p -> t0 +. p.Vio.Resilience.deadline_ms)
        env.resilience
    in
    Vio.Client.open_at env.self
      ~learn:(fun b -> learn_from_reply env name (Some b))
      ?deadline ~server:r.target ~req ~mode ()
  in
  let first_route = ref (Some first) in
  let last_target = ref None in
  let failovers = ref 0 in
  let result =
    with_resilience env ~root ~t0 (fun () ->
        let r =
          match !first_route with
          | Some r ->
              first_route := None;
              r
          | None -> route env name
        in
        note_failover env ~root ~last_target ~failovers r;
        with_stale_retry env name ~first:r attempt)
  in
  obs_done env ~op ~t0 root (outcome_of_result result);
  result

let with_instance env ~mode name f =
  match open_ env ~mode name with
  | Error e -> Error e
  | Ok instance ->
      let result = f instance in
      (* Release regardless; surface the first error. *)
      let released = Vio.Client.release env.self instance in
      (match (result, released) with
      | (Error _ as e), _ -> e
      | Ok v, Ok () -> Ok v
      | Ok _, (Error _ as e) -> e)

let read_file env name =
  with_instance env ~mode:Vmsg.Read name (fun instance ->
      Vio.Client.read_all env.self instance)

let write_file env name data =
  with_instance env ~mode:Vmsg.Write name (fun instance ->
      Vio.Client.write_all env.self instance data)

let append_file env name data =
  with_instance env ~mode:Vmsg.Append name (fun instance ->
      Vio.Client.write_all env.self instance data)

(* Read the context directory of [name] (§5.6): open the context as a
   file of description records. *)
let list_directory env name =
  with_instance env ~mode:Vmsg.Directory_listing name (fun instance ->
      Vio.Client.read_directory env.self instance)

(* --- object operations --- *)

let expect_ok = function
  | Error e -> Error e
  | Ok ((_ : Vmsg.t), (_ : Pid.t)) -> Ok ()

let query env name =
  match transact_name env ~code:Vmsg.Op.query_name name with
  | Error e -> Error e
  | Ok (reply, _) -> (
      match reply.Vmsg.payload with
      | Vmsg.P_descriptor d -> Ok d
      | _ -> Error (Vio.Verr.Protocol "QueryName reply carried no descriptor"))

let modify env name descriptor =
  expect_ok
    (transact_name env ~code:Vmsg.Op.modify_name
       ~payload:(Vmsg.P_descriptor descriptor) name)

let create env ?(directory = false) name =
  expect_ok
    (transact_name env ~code:Vmsg.Op.create_object
       ~payload:(Vmsg.P_create { directory }) name)

let remove env name = expect_ok (transact_name env ~code:Vmsg.Op.remove_object name)

let rename env name ~new_name =
  expect_ok
    (transact_name env ~code:Vmsg.Op.rename_object ~payload:(Vmsg.P_name new_name)
       ~extra_bytes:(String.length new_name) name)

(* Copy a file by name, possibly across servers: read through one
   context, write through another. *)
let copy env ~src ~dst =
  match read_file env src with
  | Error e -> Error e
  | Ok data -> write_file env dst data

(* --- prefix management --- *)

let add_prefix env prefix target =
  let payload =
    match target with
    | `Static spec -> Vmsg.P_context_spec spec
    | `Logical (service, context) -> Vmsg.P_logical_spec { service; context }
  in
  charge_stub env;
  let req = Csname.make_req prefix in
  let msg = Vmsg.request ~name:req ~payload Vmsg.Op.add_context_name in
  match Kernel.send env.self env.prefix_server msg with
  | Error e -> Error (Vio.Verr.Ipc e)
  | Ok (reply, _) -> Result.map (fun _ -> ()) (Verr_reply.check reply)

let delete_prefix env prefix =
  charge_stub env;
  let req = Csname.make_req prefix in
  let msg = Vmsg.request ~name:req Vmsg.Op.delete_context_name in
  match Kernel.send env.self env.prefix_server msg with
  | Error e -> Error (Vio.Verr.Ipc e)
  | Ok (reply, _) -> Result.map (fun _ -> ()) (Verr_reply.check reply)

(* Define a cross-server pointer: a name in one (storage) context that
   points at a context on another server (the curved arrow of
   Figure 4). *)
let link env name ~target =
  expect_ok
    (transact_name env ~code:Vmsg.Op.add_context_name
       ~payload:(Vmsg.P_context_spec target) name)
