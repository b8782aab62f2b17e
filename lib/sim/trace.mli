(** Timestamped event tracing for timelines and debugging. *)

type record = { time : float; category : string; message : string }

type t

val create : Engine.t -> t
val enable : t -> unit
val disable : t -> unit

(** Keep only records whose category is in the list. *)
val set_categories : t -> string list -> unit

(** [emit t ~category fmt ...] records a formatted message at the
    current simulated time. *)
val emit : t -> category:string -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** Records in emission order. *)
val records : t -> record list

val clear : t -> unit
val pp : Format.formatter -> t -> unit

(** Like [pp] but with times relative to the first record. *)
val pp_relative : Format.formatter -> t -> unit
