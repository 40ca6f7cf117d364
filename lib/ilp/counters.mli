(** Solver counters: the one record every floorplan-solver layer fills
    and every stats surface prints.

    {!Branch_bound} fills the LP and search fields, [Partition] adds the
    heuristic, decomposition and race fields, the compiler folds one
    record per floorplan solve with {!add}, and the CLI prints the total
    by walking {!fields}.  Every field is a pure function of the solve's
    inputs: no wall-clock value and no process-wide cache count lives
    here, so the record is bit-identical across worker counts and cache
    states. *)

type t = {
  lp_solves : int;  (** LP relaxations solved (root + per-node) *)
  lp_pivots : int;
      (** simplex iterations across all LP solves (float iterations on
          certified solves, exact pivots on fallbacks) *)
  lp_certified : int;
      (** LP solves whose float basis passed exact certification (or
          whose node was decided by an exact bound conflict) *)
  lp_fallbacks : int;
      (** LP solves where certification rejected the float result and
          the exact solver was consulted *)
  bb_nodes : int;  (** branch-and-bound nodes explored *)
  refinement_moves : int;  (** heuristic move-refinement and anneal steps *)
  subproblems : int;
      (** node-level subproblems spawned by the hierarchical floorplan
          decomposition (cluster-level problem included); 0 on the flat
          paths *)
  races_exact : int;  (** portfolio races won by the exact B&B arm *)
  races_anneal : int;
      (** portfolio races won by simulated annealing (its cost matched
          the exact root LP bound, or it beat a budget-limited search) *)
  incumbent_broadcasts : int;
      (** incumbent improvements during the parallel B&B replay merges —
          deterministic, independent of worker count *)
}

val zero : t

val add : t -> t -> t
(** Field-wise sum. *)

type field = {
  key : string;  (** JSON key, e.g. ["lp_solves"] *)
  label : string;  (** human-readable table label *)
  get : t -> int;
}

val fields : field list
(** Every field of {!t}, in declaration order — the order of the
    [compile --stats] table rows and [--stats-json] keys. *)
