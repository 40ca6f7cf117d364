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
          [incumbent_broadcasts] for {!solve_parallel}); the
          partition-level fields stay 0 *)
}

type result =
  | Optimal of solution
  | Feasible of solution  (** best incumbent when a search limit was hit *)
  | Infeasible
  | Unbounded
  | Timeout of solution option
      (** [should_stop] fired mid-search; carries the best incumbent
          found so far, if any *)

val solve :
  ?max_nodes:int ->
  ?max_pivots:int ->
  ?stall_nodes:int ->
  ?incumbent:Rat.t array ->
  ?should_stop:(unit -> bool) ->
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

    [should_stop] is polled once per node.  When it fires the search
    stops and returns [Timeout] with the best incumbent so far — the
    cooperative-cancellation hook of the portfolio racer.  It is a
    wall-clock lever only: callers must either discard a stopped run's
    answer or deterministically recompute it.

    Models are screened through {!Validate.check} first: trivially
    infeasible or unbounded instances return [Infeasible] / [Unbounded]
    immediately, without spending the node or pivot budget. *)

val solve_parallel :
  ?max_nodes:int ->
  ?max_pivots:int ->
  ?stall_nodes:int ->
  ?incumbent:Rat.t array ->
  ?pool:Pool.t ->
  ?should_stop:(unit -> bool) ->
  Model.t ->
  result
(** Parallel best-first search with sequential replay semantics.

    Phase A carves the root's best-first frontier into a fixed list of
    8 bound boxes — a pure function of the model,
    never of the worker count (the frontier order is total: LP bound,
    then insertion sequence).  Phase B solves every box concurrently on
    [pool] with {e fixed} inputs (the phase-A incumbent and the full node
    budget), so each box's answer is deterministic; a shared atomic
    incumbent is consulted only to {e abort} boxes whose root bound is
    already dominated — any solution inside such a box loses (or ties,
    which the merge also discards), so aborting cannot change the
    outcome.  Phase C merges box results sequentially in index order,
    pruning exactly as the sequential incumbent rule would and
    recomputing any speculatively aborted box it still needs.

    Consequently the returned result, solution values and every counter
    (including [incumbent_broadcasts], the merge's incumbent
    improvements) are byte-identical for [jobs = 1] and [jobs = N].  Each box receives the full [max_nodes]/[max_pivots]
    budget, so the aggregate node budget scales with the carve width.

    [should_stop] retains its wall-clock, non-deterministic semantics
    from {!solve}: when it fires the merge surfaces [Timeout] with the
    best merged incumbent. *)

val is_feasible : Model.t -> Rat.t array -> bool
(** Exact feasibility check of an assignment against all constraints,
    bounds and integrality requirements. *)
