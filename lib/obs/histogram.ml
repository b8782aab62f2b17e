(* Fixed-bucket histograms with optional exemplar reservoirs.

   [bounds] are strictly increasing bucket upper bounds; [counts] has
   one extra slot for the overflow bucket. Observed extrema are kept so
   quantile interpolation can clamp the open-ended end buckets: the
   overflow bucket's upper edge is *always* reported as the observed
   maximum, never as +inf, in [buckets], [to_json] and [quantile]
   alike. Only the Prometheus exposition format (see {!Export}) prints
   the spec-mandated "+Inf" — that is a wire-format obligation, not a
   different answer.

   Exemplars: when created with [exemplar_slots > 0], each bucket keeps
   a reservoir of up to that many (trace id, value) pairs, maintained
   with Vitter's algorithm R over a caller-supplied {!Srand} stream so
   a p99 outlier in an aggregate links back to a concrete trace. *)

type exemplar = { trace : int; value : float }

type t = {
  bounds : float array;
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
  slots : int;  (* exemplar reservoir capacity per bucket; 0 = off *)
  ex : exemplar array array;  (* one row per bucket when slots > 0 *)
  ex_fill : int array;  (* valid prefix length of each reservoir row *)
  ex_seen : int array;  (* exemplar candidates offered per bucket *)
}

(* Default bounds suit simulated-ms latencies: sub-ms locals through
   multi-second bulk transfers. *)
let default_bounds =
  [| 0.1; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0;
     256.0; 512.0; 1024.0; 4096.0 |]

let no_exemplar = { trace = 0; value = nan }

let create ?(bounds = default_bounds) ?(exemplar_slots = 0) () =
  if Array.length bounds = 0 then invalid_arg "Histogram.create: no bounds";
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg "Histogram.create: bounds not increasing")
    bounds;
  if exemplar_slots < 0 then
    invalid_arg "Histogram.create: negative exemplar_slots";
  let nbuckets = Array.length bounds + 1 in
  {
    bounds;
    counts = Array.make nbuckets 0;
    n = 0;
    sum = 0.0;
    lo = infinity;
    hi = neg_infinity;
    slots = exemplar_slots;
    ex =
      (if exemplar_slots = 0 then [||]
       else Array.init nbuckets (fun _ -> Array.make exemplar_slots no_exemplar));
    ex_fill = (if exemplar_slots = 0 then [||] else Array.make nbuckets 0);
    ex_seen = (if exemplar_slots = 0 then [||] else Array.make nbuckets 0);
  }

let bounds t = Array.copy t.bounds
let raw_counts t = Array.copy t.counts

let bucket_of t x =
  (* Linear scan: bucket counts are small and fixed. *)
  let rec find i =
    if i >= Array.length t.bounds then i
    else if x <= t.bounds.(i) then i
    else find (i + 1)
  in
  find 0

(* Reservoir sampling (algorithm R): the b-th bucket keeps each of its
   candidates with probability slots/seen, so the reservoir is a uniform
   sample of every traced observation that landed in that bucket. *)
let offer_exemplar t b ~trace ~rand x =
  t.ex_seen.(b) <- t.ex_seen.(b) + 1;
  let row = t.ex.(b) in
  if t.ex_fill.(b) < t.slots then begin
    row.(t.ex_fill.(b)) <- { trace; value = x };
    t.ex_fill.(b) <- t.ex_fill.(b) + 1
  end
  else
    let j = Srand.int rand t.ex_seen.(b) in
    if j < t.slots then row.(j) <- { trace; value = x }

let observe ?trace ?rand t x =
  let b = bucket_of t x in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x;
  if t.slots > 0 then
    match (trace, rand) with
    | Some trace, Some rand when trace > 0 -> offer_exemplar t b ~trace ~rand x
    | _ -> ()

let count t = t.n
let sum t = t.sum
let mean t = if t.n = 0 then nan else t.sum /. float_of_int t.n
let min_ t = if t.n = 0 then nan else t.lo
let max_ t = if t.n = 0 then nan else t.hi

(* Lower edge of bucket [b], clamped to the observed minimum for the
   first occupied bucket; upper edge clamped to the observed maximum
   for the overflow bucket. *)
let bucket_edges t b =
  let lower = if b = 0 then t.lo else t.bounds.(b - 1) in
  let upper = if b >= Array.length t.bounds then t.hi else t.bounds.(b) in
  (Float.max lower t.lo |> Float.min t.hi, Float.min upper t.hi)

(* Quantile by linear interpolation inside the bucket holding the
   target rank — the standard estimate for pre-aggregated samples.
   Error is bounded by the width of that bucket. *)
let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile";
  if t.n = 0 then nan
  else begin
    let target = q *. float_of_int t.n in
    let rec walk b cum =
      if b >= Array.length t.counts then t.hi
      else begin
        let c = t.counts.(b) in
        let cum' = cum +. float_of_int c in
        if c > 0 && cum' >= target then begin
          let lower, upper = bucket_edges t b in
          let frac =
            if c = 0 then 0.0
            else Float.max 0.0 (target -. cum) /. float_of_int c
          in
          lower +. (frac *. (upper -. lower))
        end
        else walk (b + 1) cum'
      end
    in
    walk 0 0.0 |> Float.max t.lo |> Float.min t.hi
  end

(* (lower, upper, count) rows for the occupied range. The overflow
   row's upper edge is the observed maximum — the same clamp
   [quantile] and [to_json] use, so all three representations agree. *)
let buckets t =
  List.init
    (Array.length t.counts)
    (fun b ->
      let lower, upper = bucket_edges t b in
      (lower, upper, t.counts.(b)))
  |> List.filter (fun (_, _, c) -> c > 0)

let exemplars t b =
  if t.slots = 0 || b < 0 || b >= Array.length t.counts then []
  else Array.to_list (Array.sub t.ex.(b) 0 t.ex_fill.(b))

let to_json t =
  let nbounds = Array.length t.bounds in
  let bucket_rows =
    List.init
      (Array.length t.counts)
      (fun b ->
        let lower, upper = bucket_edges t b in
        (b, lower, upper, t.counts.(b)))
    |> List.filter (fun (_, _, _, c) -> c > 0)
    |> List.map (fun (b, lower, upper, c) ->
           let base =
             [
               ("le", Json.Float upper);
               ("ge", Json.Float lower);
               ("count", Json.Int c);
             ]
           in
           let overflow =
             (* The open-ended bucket, flagged so readers know its "le"
                is the observed max, not a configured bound. *)
             if b >= nbounds then [ ("overflow", Json.Bool true) ] else []
           in
           let ex =
             match exemplars t b with
             | [] -> []
             | es ->
                 [
                   ( "exemplars",
                     Json.List
                       (List.map
                          (fun e ->
                            Json.Obj
                              [
                                ("trace", Json.Int e.trace);
                                ("value", Json.Float e.value);
                              ])
                          es) );
                 ]
           in
           Json.Obj (base @ overflow @ ex))
  in
  Json.Obj
    [
      ("count", Json.Int t.n);
      ("sum", Json.Float t.sum);
      ("mean", Json.Float (mean t));
      ("min", Json.Float (min_ t));
      ("max", Json.Float (max_ t));
      ("p50", Json.Float (quantile t 0.5));
      ("p95", Json.Float (quantile t 0.95));
      ("p99", Json.Float (quantile t 0.99));
      ("buckets", Json.List bucket_rows);
    ]

let pp ppf t =
  Fmt.pf ppf "n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f" t.n
    (mean t) (quantile t 0.5) (quantile t 0.95) (quantile t 0.99) (max_ t)
