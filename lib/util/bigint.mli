(** Arbitrary-precision signed integers.

    Built from scratch (no [Zarith] in the sealed environment) to back the
    exact rational arithmetic used by the simplex / branch-and-bound ILP
    solver.  Magnitudes are little-endian arrays of 24-bit digits so that
    schoolbook multiplication and Knuth's algorithm D stay within OCaml's
    63-bit native integers. *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t

val to_int_opt : t -> int option
(** [to_int_opt x] is [Some n] when [x] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val to_float : t -> float

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** Truncated division: [divmod a b = (q, r)] with [a = q*b + r],
    [|r| < |b|] and [r] carrying the sign of [a].
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd 0 0 = 0]. *)

val min : t -> t -> t
val max : t -> t -> t

val mul_int : t -> int -> t
val add_int : t -> int -> t

val pow : t -> int -> t
(** [pow x k] for [k >= 0]. *)

val of_string : string -> t
(** Parses an optional sign followed by decimal digits.
    @raise Failure on malformed input. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
