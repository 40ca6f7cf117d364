(** Exact rational arithmetic over {!Bigint}.

    Values are kept in canonical form: the denominator is strictly positive
    and coprime with the numerator.  This is the number type of the simplex
    tableau, so every operation must be exact — no epsilon comparisons
    anywhere in the solver. *)

type t

val zero : t
val one : t
val minus_one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] normalizes the fraction.
    @raise Division_by_zero when [den] is zero. *)

val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints num den].  @raise Division_by_zero when [den = 0]. *)

val of_bigint : Bigint.t -> t
val num : t -> Bigint.t
val den : t -> Bigint.t

val to_float : t -> float
val of_float_approx : ?max_den:int -> float -> t
(** Continued-fraction approximation with bounded denominator; used only to
    ingest calibration constants, never inside the solver. *)

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero when dividing by zero. *)

val min : t -> t -> t
val max : t -> t -> t

val floor : t -> Bigint.t
val ceil : t -> Bigint.t
val fractional : t -> t
(** [fractional x = x - floor x], always in [0, 1). *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( ~- ) : t -> t
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( = ) : t -> t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit
