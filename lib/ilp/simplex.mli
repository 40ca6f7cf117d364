(** Exact primal simplex over rationals.

    Two implementations share one result type:

    {ul
    {- {!solve_reference} — the original two-phase dense-tableau solver.
       Variable upper bounds are materialized as explicit [y_j <= u_j]
       tableau rows, and the whole standard form is rebuilt from the
       {!Model} on every call.  Still on the production path: the
       bounded-variable path falls back to it when phase 1 leaves an
       artificial variable in the basis that no eligible column can
       replace on a non-redundant row.  It is also the
       independently-written oracle of the differential tests.}
    {- {!prepare} / {!solve_prepared} — the incremental hot path used by
       {!Branch_bound}.  [prepare] computes the standard-form layout
       (row collection from the model, slack/artificial column
       assignment, dense +/- coefficient templates) {e once per model};
       [solve_prepared ~bounds] only re-applies the variable-bound shifts
       before the two-phase run.  Variable bounds are handled {e
       implicitly} (bounded-variable simplex: nonbasic variables may sit
       at either bound, and a ratio test hitting the entering variable's
       own bound is a cheap bound flip, not a pivot), so the working
       tableau has one row per model constraint instead of one per
       constraint plus one per bounded variable.  On the floorplanner's
       binary-heavy models this shrinks the tableau several-fold and
       turns most knapsack-style pivots into O(m) flips.}}

    All arithmetic is exact ({!Tapa_cs_util.Rat}), so "optimal" means
    provably optimal — this is what lets branch-and-bound certify the same
    partitions a commercial ILP solver would return.  Both paths agree on
    the result constructor and the objective value (enforced by a qcheck
    property); when an LP has several optimal vertices they may return
    different ones. *)

open Tapa_cs_util

type solution = {
  objective : Rat.t;  (** value of the model's objective at the optimum *)
  values : Rat.t array;  (** one value per model variable *)
  pivots : int;
      (** simplex iterations across both phases: basis changes plus, on
          the prepared path, bound flips (each counts toward
          [max_pivots]) *)
}

type result = Optimal of solution | Infeasible | Unbounded

exception Pivot_limit

type prepared
(** Standard-form template of one model: row layout, slack/artificial
    column indices, dense positive/negated coefficient rows and the
    sparse terms needed to re-shift right-hand sides under new bounds.
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
(** Thin wrapper: [solve model = solve_prepared (prepare model)].  Every
    pre-existing caller compiles unchanged and transparently gets the
    bounded-variable path.
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
    node is re-solved by {!solve_prepared} (falling back to
    {!solve_reference} as before), so the result is always exact; only
    [ff_certified] records that the fast path missed.
    @raise Pivot_limit when the exact fallback exhausts [max_pivots]
    (the float attempt itself is capped separately and cheaply). *)

val solve_reference :
  ?bounds:Rat.t array * Rat.t option array ->
  ?max_pivots:int ->
  Model.t ->
  result
(** The original (seed) implementation: full standard-form rebuild with
    explicit upper-bound rows.  Slower.  {!solve_prepared} and the exact
    fallback of {!solve_float_first} call it when phase 1 ends with an
    artificial variable stuck in the basis on a non-redundant row (one
    whose every candidate column sits at its upper bound or is fixed),
    so it runs in production; the differential qcheck properties also
    use it as the oracle.
    @raise Pivot_limit when [max_pivots] is exhausted. *)
