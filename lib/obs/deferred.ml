(* Deferred counters: a fixed set of int counts for one site (a host, a
   network port) that the hot path bumps in place and a scrape point
   moves into a metrics registry.

   One int array holds both halves: slots [0, n) are the live counts,
   slots [n, 2n) what each count was at the previous flush. Recording is
   one array add; the registry's key work is paid once per site and
   counter at scrape time, never per event (the Prometheus model:
   instrument locally, aggregate on scrape). *)

type t = int array

let create n = Array.make (2 * n) 0
let incr t i = t.(i) <- t.(i) + 1
let add t i by = t.(i) <- t.(i) + by

let flush t m ~host ~server ~ops =
  let n = Array.length t / 2 in
  let rec dirty i = i < n && (t.(i) > t.(n + i) || dirty (i + 1)) in
  if dirty 0 then begin
    let host = host () in
    (* Every counter of a dirty site is recorded, unchanged ones by
       zero, so the site's whole instrument set appears at once. *)
    for i = 0 to n - 1 do
      Metrics.incr m ~by:(t.(i) - t.(n + i)) ~host ~server ~op:ops.(i);
      t.(n + i) <- t.(i)
    done
  end
