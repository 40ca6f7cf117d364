(** Exact 0-1 branch-and-bound built on {!Simplex}.

    Best-first search on the LP-relaxation bound, branching on the most
    fractional binary variable.  With exact rational LP bounds the search
    returns provably optimal integer solutions — the same answers the
    paper obtains from Gurobi / python-MIP. *)

open Tapa_cs_util

type solution = {
  objective : Rat.t;
  values : Rat.t array;
  counters : Counters.t;
      (** the search's LP and node counters ([lp_*], [bb_nodes], and
          [incumbent_broadcasts] for {!solve_carved}); the
          partition-level fields stay 0 *)
}

type result =
  | Optimal of solution
  | Feasible of solution  (** best incumbent when a search limit was hit *)
  | Infeasible
  | Unbounded

val solve :
  ?max_nodes:int ->
  ?max_pivots:int ->
  ?stall_nodes:int ->
  ?incumbent:Rat.t array ->
  Model.t ->
  result
(** [incumbent] seeds the search with a known feasible assignment (e.g.
    from a heuristic) so the solver can prune from the first node.  An
    infeasible seed is rejected silently.

    The model is lowered to a {!Simplex.prepared} template once at the
    root, and every node relaxation is solved through
    {!Simplex.solve_float_first}: a double-precision simplex proposes
    the basis, exact rational certification accepts or rejects it, and
    rejected nodes fall back to the exact solver — results are exact
    either way, and the [lp_certified] / [lp_fallbacks] counters record
    which route each solve took.  Each node also carries its parent's
    certified basis; since tightening a single bound keeps that basis
    dual-feasible, the child's float solve warm-restarts with a dual
    simplex phase instead of a from-scratch two-phase run.

    Models are screened through {!Validate.check} first: trivially
    infeasible or unbounded instances return [Infeasible] / [Unbounded]
    immediately, without spending the node or pivot budget. *)

val solve_carved :
  ?max_nodes:int ->
  ?max_pivots:int ->
  ?stall_nodes:int ->
  ?incumbent:Rat.t array ->
  Model.t ->
  result
(** Best-first search split into subtrees.

    Phase A carves the root's best-first frontier into a fixed list of
    8 bound boxes, a pure function of the model (the frontier order is
    total: LP bound, then insertion sequence).  Phase B then searches
    the boxes one after another in that pop order, each with {e fixed}
    inputs (the phase-A incumbent and the full node budget), and merges
    as it goes: a box whose root bound the merged answer already
    matches or beats is skipped without being solved, since anything
    inside it loses or ties, and a tie keeps the earlier answer.

    [incumbent_broadcasts] counts the merge's incumbent improvements.
    Each box receives the full [max_nodes]/[max_pivots] budget, so the
    aggregate node budget scales with the carve width. *)

val is_feasible : Model.t -> Rat.t array -> bool
(** Exact feasibility check of an assignment against all constraints,
    bounds and integrality requirements. *)
