(* The metrics registry: named counters, gauges and fixed-bucket latency
   histograms, keyed by (host, server, operation).

   The registry is designed for the simulation's hot paths: recording
   never touches simulated time, so instrumented and uninstrumented runs
   are bit-identical. Instruments are created lazily on first use, so
   call sites need no setup.

   Two storage modes share this one recording API. The default is the
   original flat mode: one instrument per concrete (host, server, op)
   triple — unbounded cardinality, fine at demo scale. Attaching a
   {!Rollup} ([set_rollup]) switches the registry to scale mode: every
   recording is forwarded to the rollup's leaf/group/fleet tree (host
   as the leaf scope) and the flat tables stay empty, so key count is
   governed by the rollup's cap instead of the host count. The flat
   readers deliberately keep their flat-mode meaning — in rollup mode
   they report zero/absent, and callers read the rollup instead. *)

module Histogram = Histogram

type key = { host : string; server : string; op : string }

let pp_key ppf k = Fmt.pf ppf "%s/%s/%s" k.host k.server k.op

let key_json k =
  [
    ("host", Json.String k.host);
    ("server", Json.String k.server);
    ("op", Json.String k.op);
  ]

type t = {
  bounds : float array;
  counters : (key, int ref) Hashtbl.t;
  gauges : (key, float ref) Hashtbl.t;
  histograms : (key, Histogram.t) Hashtbl.t;
  mutable rollup : Rollup.t option;
}

let create ?(bounds = Histogram.default_bounds) () =
  {
    bounds;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 32;
    rollup = None;
  }

let rollup t = t.rollup
let set_rollup t r = t.rollup <- r

let incr ?(by = 1) t ~host ~server ~op =
  match t.rollup with
  | Some r -> Rollup.incr ~by r ~leaf:host ~server ~op
  | None -> (
      let k = { host; server; op } in
      match Hashtbl.find_opt t.counters k with
      | Some r -> r := !r + by
      | None -> Hashtbl.replace t.counters k (ref by))

let set_gauge t ~host ~server ~op v =
  match t.rollup with
  | Some r -> Rollup.set_gauge r ~leaf:host ~server ~op v
  | None -> (
      let k = { host; server; op } in
      match Hashtbl.find_opt t.gauges k with
      | Some r -> r := v
      | None -> Hashtbl.replace t.gauges k (ref v))

(* Flat histograms keep no exemplars: a trace id only matters in rollup
   mode, where the rollup carries its own reservoirs. *)
let observe ?trace t ~host ~server ~op v =
  match t.rollup with
  | Some r -> Rollup.observe ?trace r ~leaf:host ~server ~op v
  | None ->
      let k = { host; server; op } in
      let h =
        match Hashtbl.find_opt t.histograms k with
        | Some h -> h
        | None ->
            let h = Histogram.create ~bounds:t.bounds () in
            Hashtbl.replace t.histograms k h;
            h
      in
      Histogram.observe h v

let counter_value t ~host ~server ~op =
  match Hashtbl.find_opt t.counters { host; server; op } with
  | Some r -> !r
  | None -> 0

let histogram t ~host ~server ~op =
  Hashtbl.find_opt t.histograms { host; server; op }

let compare_key a b =
  match String.compare a.host b.host with
  | 0 -> (
      match String.compare a.server b.server with
      | 0 -> String.compare a.op b.op
      | c -> c)
  | c -> c

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let counters t = sorted_bindings t.counters ( ! )
let gauges t = sorted_bindings t.gauges ( ! )
let histograms t = sorted_bindings t.histograms Fun.id

let to_json t =
  let instrument extra k = Json.Obj (key_json k @ extra) in
  Json.Obj
    [
      ( "counters",
        Json.List
          (List.map
             (fun (k, v) -> instrument [ ("value", Json.Int v) ] k)
             (counters t)) );
      ( "gauges",
        Json.List
          (List.map
             (fun (k, v) -> instrument [ ("value", Json.Float v) ] k)
             (gauges t)) );
      ( "histograms",
        Json.List
          (List.map
             (fun (k, h) ->
               instrument [ ("histogram", Histogram.to_json h) ] k)
             (histograms t)) );
    ]

let pp ppf t =
  List.iter
    (fun (k, v) -> Fmt.pf ppf "%a = %d@." pp_key k v)
    (counters t);
  List.iter
    (fun (k, v) -> Fmt.pf ppf "%a = %.3f@." pp_key k v)
    (gauges t);
  List.iter
    (fun (k, h) -> Fmt.pf ppf "%a: %a@." pp_key k Histogram.pp h)
    (histograms t)
