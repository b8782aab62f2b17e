(** Deterministic splittable PRNG (splitmix64).

    All randomness in a scenario derives from one seed, keeping runs
    exactly reproducible. [split] yields an independent stream so
    subsystems cannot perturb each other's draws. *)

type t

val create : seed:int -> t

(** An independent child stream. *)
val split : t -> t

(** 62 uniformly random bits as a non-negative [int]. *)
val bits : t -> int

(** Uniform integer in [\[0, bound)]. *)
val int : t -> int -> int

(** Uniform float in [\[0, 1)]. *)
val float : t -> float

val bool : t -> bool

(** Exponential variate with the given [mean]. *)
val exponential : t -> mean:float -> float

(** Uniform choice from a non-empty list. *)
val pick : t -> 'a list -> 'a
