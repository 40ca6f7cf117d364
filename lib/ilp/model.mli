(** Mixed 0-1 / continuous linear-program model builder.

    Mirrors the little slice of the Gurobi / python-MIP API that TAPA-CS's
    floorplanner needs: binary assignment variables, continuous cut
    variables, linear constraints and a linear objective. *)

open Tapa_cs_util

type relation = Le | Ge | Eq
type kind = Continuous | Binary
type sense = Minimize | Maximize

type t

val create : unit -> t

val add_var : t -> ?name:string -> ?lb:Rat.t -> ?ub:Rat.t -> kind -> int
(** Returns the variable index.  Binary variables are implicitly bounded to
    [0,1] (explicit bounds further tighten them).  Continuous variables
    default to [lb = 0] and no upper bound.
    @raise Invalid_argument when [lb < 0] — the solver works in the
    nonnegative orthant, which is all the floorplanner formulations need. *)

val add_constraint : t -> ?name:string -> Linear.t -> relation -> Rat.t -> unit
(** [name] labels the constraint for diagnostics ({!Validate}, {!pp});
    unnamed constraints render as [c<index>]. *)

val set_objective : t -> sense -> Linear.t -> unit

val num_vars : t -> int
val var_name : t -> int -> string
val var_kind : t -> int -> kind
val var_lb : t -> int -> Rat.t
val var_ub : t -> int -> Rat.t option
val constraints : t -> (Linear.t * relation * Rat.t) list

val named_constraints : t -> (string * Linear.t * relation * Rat.t) list
(** Constraints with their diagnostic names, in insertion order. *)

val objective : t -> sense * Linear.t

val pp : Format.formatter -> t -> unit
