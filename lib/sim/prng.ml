(* Deterministic splittable PRNG (splitmix64). Every source of
   randomness in a scenario draws from a stream derived from the
   scenario seed, so runs are exactly reproducible and independent
   subsystems (e.g. per-host identifier generators) do not perturb each
   other's sequences. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

(* Derive an independent stream; the child's sequence does not overlap
   the parent's for any practical draw count. *)
let split t = { state = mix (next_int64 t) }

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  bits t mod bound

(* Uniform float in [0, 1). *)
let float t =
  let x = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float x /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Exponential variate with the given mean; used for request
   inter-arrival times in workloads. *)
let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = float t in
  -.mean *. log (1.0 -. u)

let pick t = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

