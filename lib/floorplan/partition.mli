(** Capacity-constrained K-way graph partitioning — the optimization
    engine behind both floorplanning levels (Eqs. 1–4).

    An instance places [n] items (tasks), each with a resource vector,
    into [k] parts (FPGAs at level 1, slot regions at level 2) so that no
    part exceeds its capacity and the distance-weighted edge cost is
    minimal.  Edges to entities outside the instance (already-placed
    tasks, I/O pins, HBM columns) enter as linear "pull" terms.

    Two backends: an exact 0-1 ILP (what the paper solves with Gurobi /
    python-MIP) and a first-fit + move-refinement heuristic for instances
    too large for exact search.  [Auto] picks per instance and seeds the
    exact solver with the heuristic incumbent. *)

open Tapa_cs_util
open Tapa_cs_device

type problem = {
  areas : Resource.t array;  (** per-item resource profile (v_area of Eq. 1) *)
  edges : (int * int * float) list;  (** (a, b, weight); weight = width x λ of Eq. 2 *)
  pulls : (int * int * float) list;  (** (item, part, weight): cost [weight * dist(part_of item, part)] *)
  k : int;
  capacities : Resource.t array;  (** per-part budget, threshold already applied *)
  dist : int -> int -> int;  (** inter-part distance metric (Eqs. 3–4) *)
  fixed : (int * int) list;  (** pre-assigned items *)
}

type strategy = Exact | Heuristic | Auto

type stats = {
  backend : [ `Exact | `Heuristic | `Greedy ];
  runtime_s : float;
  counters : Tapa_cs_ilp.Counters.t;
      (** solver counters of this solve: the LP and node counts of every
          exact search it ran, heuristic refinement moves, grouped
          subproblems and portfolio race wins; all 0 for [`Greedy] *)
  proven_optimal : bool;
}

type result = { assignment : int array; cost : float; feasible : bool; stats : stats }

val cost_of : problem -> int array -> float
(** Objective value of an assignment (Eq. 2 plus pulls). *)

val feasible_assignment : problem -> int array -> bool
(** Capacity (Eq. 1) and fixed-placement compliance. *)

val solve :
  ?strategy:strategy ->
  ?seed:int ->
  ?warm_incumbent:int array ->
  ?pool:Pool.t ->
  ?groups:int array ->
  problem ->
  result option
(** [None] when no feasible assignment was found (exact proof of
    infeasibility for the exact backend; search failure for the
    heuristic).  [Auto] tries the exact backend on instances of up to 28
    binary variables (14 for a joint k-way ILP).  [warm_incumbent]
    seeds the exact search with an externally known assignment (e.g.
    the previous fallback-chain attempt re-checked against relaxed
    capacities); infeasible seeds are dropped silently.

    [groups] (one group id per part, e.g. the server node hosting each
    FPGA) enables the hierarchical decomposition on large [Auto]
    instances ([k > 8], at least two non-trivial groups): a
    cluster-level assignment of items to groups (deterministic
    weight-independent BFS chunking, greedy + anneal as fallback), then
    one independent subproblem per group — each racing exact parallel
    branch-and-bound against deterministic simulated annealing — solved
    concurrently on [pool], stitched and polished across the group
    boundary.  Without [groups] (or outside those conditions) the flat
    paths run exactly as before.  [pool] only ever changes wall-clock
    time, never the answer: both race arms are deterministic and the
    arbitration is a pure function of their results.

    Each per-group subproblem additionally goes through a second-level
    {e fragment cache}: the subproblem is canonicalized under a
    renaming-invariant digest, solved in canonical space with a seed
    derived from its own content, memoized process-wide, and mapped
    back.  After a design edit, a board fault or a farm re-placement,
    only the groups whose digest changed (the dirty set) re-solve;
    untouched groups replay their fragments — and distinct callers
    (attempts, tenants) with content-identical subproblems share them.
    Fragments obey the same determinism contract as the solution cache:
    cold and warm solves are byte-identical by construction, because
    both solve the canonical problem with the content-derived seed.
    Observe via {!fragment_stats}.

    Results are memoized in a content-addressed cache keyed on a
    canonical digest of every argument that influences the answer
    (strategy, seed, incumbent, areas, edges, pulls, [k],
    capacities, the [k x k] distance table, fixed placements and
    [groups]; [pool] is deliberately excluded — it cannot change the
    answer).  The
    cache is transparent: hits return the stored record — including its
    original [runtime_s] — so compile output is bit-identical whether the
    cache is cold or warm, and it is safe under domain-parallel compile.
    Observe it via {!cache_stats} / {!reset_cache}.
    @raise Invalid_argument on a malformed problem: [k <= 0], a
    capacity count other than [k], an edge, pull or fixed placement out
    of range, a negative or non-finite edge weight, or a non-finite pull
    weight (each message names which).  {!greedy} checks the same. *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of the process-wide solution cache. *)

val reset_cache : unit -> unit
(** Clears the solution cache, the fragment cache and all their counters
    (tests / benchmarks): "cold" measurements must not be warmed by
    second-level fragments either. *)

type fragment_stats = {
  frag_hits : int;
      (** per-group subproblems replayed from the fragment cache *)
  frag_misses : int;  (** subproblem lookups that had to solve *)
  groups_resolved : int;
      (** subproblems actually (re-)solved — the cumulative dirty set;
          [= frag_misses] minus single-flight de-duplication *)
  frag_entries : int;  (** fragments currently cached *)
  frag_evictions : int;  (** fragments dropped by generation rotation *)
}

val fragment_stats : unit -> fragment_stats
(** Process-wide counters of the second-level fragment cache.  These are
    deliberately {e not} part of {!stats} / {!result}: the result record
    is bit-identical between cache-cold and cache-warm solves, and a
    cache-state-dependent count would break that contract. *)

val reset_fragments : unit -> unit
(** Clears only the fragment cache and its counters. *)

val fragment_digest : problem -> string
(** Renaming-invariant digest of a subproblem: invariant under any item
    renumbering and part permutation (areas, capacities, edges, pulls,
    distance table and pins are all hashed in canonical color space).
    Digest inequality therefore implies a solution-relevant difference —
    the two instances are not renamings of each other.  Exposed for
    property tests and diagnostics; the fragment cache key additionally
    carries the exact canonical serialization, so digest collisions can
    only cost a miss, never a wrong replay. *)

val greedy : problem -> result option
(** Deterministic first-fit-decreasing placement — no search, no
    randomness, always terminates.  The last rung of the compile path's
    fallback chain: the answer may be infeasible ([result.feasible] =
    false) or high-cut, which callers surface as degraded operation.
    [None] only for empty instances. *)

val num_items : problem -> int

val prng_for_tests : int -> Prng.t
(** Exposed so property tests can reproduce heuristic randomness. *)
