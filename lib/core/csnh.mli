(** The standard name-mapping procedure and the generic CSNH server
    skeleton (paper §5.4).

    Any server implementing one or more name spaces conforms to this
    procedure: interpret components of the uninterpreted part of the
    name left-to-right in a running CurrentContext; when a component
    resolves to a context implemented by another server, rewrite the
    standard fields (name index, context id) and forward the request —
    which the server need not otherwise understand — to that server. *)

module Kernel = Vkernel.Kernel
module Pid = Vkernel.Pid

(** What one name component means inside a given context. *)
type lookup_result =
  | Descend of Context.id  (** a context on this same server *)
  | Cross of Context.spec  (** a pointer to a context on another server *)
  | Stop  (** not a context here: a leaf object, or absent *)

type outcome =
  | Local of Context.id * string list
      (** interpretation ends here: the final context and the components
          context resolution did not consume (possibly none) *)
  | Forward of Context.spec * Csname.req
      (** crossed into another server's context: forward the request,
          rewritten with the new index and context id *)
  | Fail of Reply.code

(** Run the §5.4 procedure over a request. Rejects '[prefix]' names
    (only prefix servers parse those — the client run-time routes them)
    and invalid starting contexts. *)
val walk :
  valid_context:(Context.id -> bool) ->
  lookup:(Context.id -> string -> lookup_result) ->
  Csname.req ->
  outcome

(** What a specific server plugs into the generic loop. *)
type handlers = {
  valid_context : Context.id -> bool;
  lookup : Context.id -> string -> lookup_result;
      (** one component in one context; the loop charges
          [component_lookup_cpu] around each call *)
  handle_csname :
    sender:Pid.t -> Vmsg.t -> Csname.req -> Context.id -> string list -> Vmsg.t;
      (** a CSname request whose interpretation ended on this server:
          final context, unconsumed components; returns the reply *)
  handle_other : sender:Pid.t -> Vmsg.t -> Vmsg.t option;
      (** non-CSname requests; [None] means not implemented *)
}

(** Counters a CSNH server keeps about its own processing; the harness
    uses [specific_ms] to separate protocol cost from server-specific
    cost (the paper's Open figures exclude the latter). *)
type server_stats = {
  requests : Vsim.Stats.Counter.t;
  forwards : Vsim.Stats.Counter.t;
  specific_ms : Vsim.Stats.Series.t;
}

val make_stats : string -> server_stats

(** [metric self op] counts [op] against (this host, this server's
    name) in the domain's hub, if one is attached. *)
val metric : Vmsg.t Kernel.self -> string -> unit

(** One span per CSNH hop. Every name server opens, closes and
    re-parents its part of a traced request through these; all of it
    is bookkeeping off the simulation clock. *)
module Hop : sig
  (** This hop's span and the hub storing it; [None] when the request
      is untraced or no hub is attached. *)
  type t

  (** [start self ?op msg req] opens the hop's span, named [op]
      (default: the name of [msg]'s operation). *)
  val start : Vmsg.t Kernel.self -> ?op:string -> Vmsg.t -> Csname.req -> t

  (** [finish self hop ?index_to outcome] closes the span with a reply
      code string (or another outcome) and the name index reached. *)
  val finish : Vmsg.t Kernel.self -> t -> ?index_to:int -> string -> unit

  (** [reparent self hop req] is [req] carrying this hop's span as the
      parent of whatever the next server does with it. *)
  val reparent : Vmsg.t Kernel.self -> t -> Csname.req -> Csname.req

  (** [forward self hop req] finishes the hop as ["forward"] at [req]'s
      index and returns [req] re-parented, ready to forward. *)
  val forward : Vmsg.t Kernel.self -> t -> Csname.req -> Csname.req
end

(** Handle one request: reply, or forward it along. Exposed for servers
    with custom receive loops (the prefix server, the mail server). *)
val handle_request :
  Vmsg.t Kernel.self -> handlers -> server_stats -> sender:Pid.t -> Vmsg.t -> unit

(** Run a CSNH server forever. *)
val serve : Vmsg.t Kernel.self -> ?stats:server_stats -> handlers -> unit
