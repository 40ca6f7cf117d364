(** Exact primal simplex over rationals.

    One exact path, plus a float proposal that it certifies:

    {ul
    {- {!prepare} / {!solve_prepared} — the exact two-phase
       bounded-variable simplex.  [prepare] computes the standard-form
       layout (row collection from the model, slack/artificial column
       assignment, dense +/- coefficient templates, the minimized cost
       vector) {e once per model}; [solve_prepared ~bounds] only
       re-applies the variable-bound shifts before the two-phase run.
       Variable bounds are handled {e implicitly} (nonbasic variables may
       sit at either bound, and a ratio test hitting the entering
       variable's own bound is a cheap bound flip, not a pivot), so the
       working tableau has one row per model constraint instead of one
       per constraint plus one per bounded variable.  When phase 1 leaves
       an artificial basic on a row whose non-zero columns are all at
       their upper bound or fixed, one of those columns replaces it in a
       degenerate exchange: no value moves.}
    {- {!solve_float_first} — the route {!Branch_bound} and every other
       solve in the library take.  The same bounded-variable simplex runs
       in double precision and proposes a basis; exact rational algebra
       certifies it, and {!solve_prepared}'s exact run re-solves any node
       it cannot certify.}}

    All arithmetic that decides a result is exact
    ({!Tapa_cs_util.Rat}), so "optimal" means provably optimal — this
    is what lets branch-and-bound certify the same partitions a
    commercial ILP solver would return.  The differential tests compare
    both routes, and the [certcheck] gate the float-first one, against
    the original seed solver, an independently written dense-tableau
    oracle that lives test-side in [test/oracle] ([Lp_oracle.solve]):
    same result constructor and objective value; when an LP has several
    optimal vertices they may return different ones. *)

open Tapa_cs_util

type solution = {
  objective : Rat.t;  (** value of the model's objective at the optimum *)
  values : Rat.t array;  (** one value per model variable *)
  pivots : int;
      (** simplex iterations across both phases: basis changes plus bound
          flips (each counts toward [max_pivots]) *)
}

type result = Optimal of solution | Infeasible | Unbounded

exception Pivot_limit

type prepared
(** Standard-form template of one model: row layout, slack/artificial
    column indices, dense positive/negated coefficient rows, the sparse
    terms needed to re-shift right-hand sides under new bounds, and the
    minimized cost vector (exact and in doubles).
    Immutable after {!prepare}; a single template may be shared by
    concurrent solves (every {!solve_prepared} call allocates its own
    working tableau). *)

val prepare : Model.t -> prepared
(** Builds the template in O(constraints x vars).  {!Branch_bound} calls
    this once at the root and reuses the template at every node,
    eliminating the per-node model -> tableau rebuild. *)

val solve_prepared :
  ?bounds:Rat.t array * Rat.t option array -> ?max_pivots:int -> prepared -> result
(** Solves the continuous relaxation under the template's model with the
    per-variable lower/upper bounds overridden by [bounds] (defaults: the
    model's own bounds).  Only the bound shifts are recomputed — O(nnz)
    per row — before the two-phase run.
    @raise Pivot_limit when [max_pivots] (default 2_000_000) is
    exhausted. *)

val solve :
  ?bounds:Rat.t array * Rat.t option array ->
  ?max_pivots:int ->
  Model.t ->
  result
(** Thin wrapper: [solve model = solve_prepared (prepare model)], for
    tests and one-off exact solves; library code goes through
    {!solve_float_first}.
    @raise Pivot_limit when [max_pivots] is exhausted. *)

type basis
(** A simplex basis proposed by the float path: one basic column per
    template row plus the nonbasic-at-upper-bound flags.  Opaque —
    meaningful only together with the {!prepared} template it came from.
    {!Branch_bound} threads a parent's basis to its children so their
    solves can warm-restart with a dual simplex phase. *)

type float_first_outcome = {
  ff_result : result;
  ff_basis : basis option;
      (** the certified optimal basis; [None] on exact fallback (or when
          the node was decided by a bound conflict) *)
  ff_certified : bool;
      (** [true] when the float proposal passed exact certification (or
          the node was infeasible by an exact bound conflict); [false]
          when the exact solver had to be consulted *)
}

val solve_float_first :
  ?bounds:Rat.t array * Rat.t option array ->
  ?warm:basis ->
  ?max_pivots:int ->
  prepared ->
  float_first_outcome
(** Float-first solve with exact certification.  Runs the prepared
    bounded-variable simplex in double precision (warm-restarting from
    [warm] with a dual simplex phase when given), then re-derives the
    proposed basis's solution {e exactly}: basic values via a rational
    LU solve of [B x_B = b], reduced costs via [B^T y = c_B].  If the
    basis passes the exact primal and dual feasibility checks the
    reconstructed rational solution is provably optimal and is returned
    with [ff_certified = true].  On any violation — and on float claims
    of infeasibility or unboundedness, which carry no certificate — the
    node is re-solved by {!solve_prepared}'s exact run, so the result is
    always exact; only [ff_certified] records that the fast path
    missed.
    @raise Pivot_limit when the exact fallback exhausts [max_pivots]
    (the float attempt itself is capped separately and cheaply). *)
