(** Parallel harness for independent design simulations.

    A sweep runs a batch of unrelated {!Design_sim} points — candidate
    FPGA counts, frequency settings, fault scenarios — across worker
    domains via {!Tapa_cs_util.Pool.parallel_map}.  Each simulation is a
    pure function of its job (the engine is deterministic and the shared
    result cache content-addressed and domain-safe), and results are
    assembled in index order, so the output array is byte-identical
    whatever the [jobs] count: parallelism may only change wall-clock
    time.  The CI determinism gate ([bench/exp_simgate.ml]) enforces
    exactly this. *)

type job = {
  label : string;  (** carried through to the result row *)
  config : Design_sim.config;
  faults : Tapa_cs_network.Fault.plan;
}

val job : ?faults:Tapa_cs_network.Fault.plan -> label:string -> Design_sim.config -> job
(** Convenience constructor; no faults by default. *)

val run : ?jobs:int -> ?cache:bool -> job array -> (string * Design_sim.outcome) array
(** Simulate every job and return [(label, outcome)] rows in job order.

    [jobs] caps the worker count: [Some 1] forces the sequential path,
    [Some n] runs on an ephemeral [n]-domain pool (shut down afterwards),
    and [None] defaults to {!Tapa_cs_util.Pool.default_jobs} — sequential
    on single-core hosts or under [TAPA_CS_JOBS=1].  [cache] (default
    [true]) is passed through to the per-point simulation cache. *)

(** {2 SLO pruning}

    Static-bound screening for sweeps with a latency target: points
    whose certified lower bound already misses the SLO are skipped
    without simulating.  The bound callback lives with the caller
    (normally {!Tapa_cs_analysis.Static_perf.bounds} via [Flow]) so this
    library stays independent of the analysis layer. *)

type slo_row =
  | Simulated of Design_sim.outcome  (** the point was simulated as usual *)
  | Pruned of { lower_bound_s : float }
      (** skipped: even the certified lower bound exceeds the SLO *)

val run_slo :
  ?jobs:int ->
  ?cache:bool ->
  slo_latency_s:float ->
  lower_bound_s:(job -> float) ->
  job array ->
  (string * slo_row) array
(** Like {!run}, with rows in job order, but a job is only simulated when
    [lower_bound_s job <= slo_latency_s].  Pruning is lossless as long as
    the callback is a true lower bound on the job's simulated latency
    (return [neg_infinity] to force simulation): surviving rows are
    byte-identical to the matching rows of an unpruned {!run}.  Each
    pruned point bumps the process-wide {!static_pruned} tally. *)

val static_pruned : unit -> int
(** Points pruned by {!run_slo} since start (or {!reset_static_pruned});
    surfaced as ["static_pruned"] in the CLI's [--stats-json]. *)

val reset_static_pruned : unit -> unit
