(** Sparse linear expressions over model variables.

    Variables are integer indices handed out by {!Model.add_var}; an
    expression maps each variable to an exact rational coefficient plus a
    constant term. *)

open Tapa_cs_util

type t

val zero : t
val constant : Rat.t -> t
val var : ?coeff:Rat.t -> int -> t
(** [var v] is the expression [1 * x_v]; [~coeff] scales it. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : Rat.t -> t -> t
val add_term : t -> int -> Rat.t -> t
(** [add_term e v c] is [e + c * x_v]. *)

val of_terms : ?const:Rat.t -> (int * Rat.t) list -> t

val coeff : t -> int -> Rat.t
val const : t -> Rat.t
val terms : t -> (int * Rat.t) list
(** Nonzero terms in increasing variable order. *)

val eval : t -> (int -> Rat.t) -> Rat.t
val max_var : t -> int
(** Largest variable index mentioned, or [-1] for a constant. *)

val pp : names:(int -> string) -> Format.formatter -> t -> unit
