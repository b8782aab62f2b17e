(** Deferred counters: per-site int counts bumped in place on a hot path
    and moved into a {!Metrics} registry at scrape time.

    A site is one host, one network port — anything with a fixed set of
    counters under one (host, server) label. Counting is one array add:
    no hub test, no key. {!flush} records each count's change since the
    previous flush in whichever registry it is handed, so counts not yet
    flushed when a site's hub changes land in the new hub, and nothing
    is counted twice. *)

type t

(** [create n] is a site with [n] counters, numbered [0 .. n-1], all
    zero. *)
val create : int -> t

(** [incr t i] adds one to counter [i]. *)
val incr : t -> int -> unit

(** [add t i by] adds [by] to counter [i]. *)
val add : t -> int -> int -> unit

(** [flush t m ~host ~server ~ops] adds every counter's change since
    the previous flush to [m], counter [i] under
    [(host (), server, ops.(i))]. A site with no change records nothing
    and never calls [host]; a site with any change records all [n]
    counters, unchanged ones by zero. Pure bookkeeping: call at scrape
    points, never per event. *)
val flush :
  t ->
  Metrics.t ->
  host:(unit -> string) ->
  server:string ->
  ops:string array ->
  unit
