(** Fixed-size worker-domain pool for the compile pipeline.

    Built on stdlib [Domain] + [Mutex]/[Condition] only (no opam deps).
    The pool exists so the per-FPGA floorplanning stages and the distinct
    synthesis runs can execute on separate cores while the compiler's
    output stays byte-identical to the sequential path: {!parallel_map}
    assembles results in index order, so the only thing parallelism may
    change is wall-clock time.

    {b Determinism / purity contract}: the mapped function must be pure —
    no shared mutable state, no I/O ordering assumptions, no reads of
    global mutable tables that another worker may write.  Every call site
    in this repository maps over immutable inputs ({!Tapa_cs_graph},
    boards, synthesis reports) and returns freshly allocated values.
    Violating the contract does not crash the pool, but it forfeits the
    [jobs = 1] / [jobs = N] bit-identical-output guarantee that the
    compiler tests enforce. *)

type t
(** A pool of worker domains.  Workers idle on a condition variable
    between batches; {!shutdown} joins them. *)

val default_jobs : unit -> int
(** Effective default parallelism: the [TAPA_CS_JOBS] environment
    variable when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()].  [TAPA_CS_JOBS=1] (or a
    single-core host) selects the sequential fallback everywhere a pool
    would otherwise be created. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains] worker domains (clamped to
    [>= 0]; default [default_jobs () - 1], i.e. workers in addition to
    the calling domain).  A pool with zero workers is valid and makes
    {!parallel_map} run sequentially. *)

val size : t -> int
(** Number of worker domains (excluding the caller, which also works
    during a batch). *)

val snapshot : t -> int * int
(** [(queue_depth, busy_workers)]: items of the current batch published
    but not yet claimed, and domains (workers or the caller) currently
    inside a mapped closure.  Lock-free atomic reads, observability only
    — the serving layer reports pool saturation from this without ever
    touching scheduling.  Both are [0] when the pool is idle; values read
    while a batch is in flight are instantaneous and may be stale by the
    time the caller uses them. *)

val parallel_map : ?pool:t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ?pool f a] is [Array.map f a] with the elements
    evaluated concurrently by the pool's workers plus the calling domain.
    Results are assembled by index, so the output array is identical to
    the sequential map for pure [f].

    Runs sequentially when: the array has fewer than two elements, [pool]
    is absent and {!default_jobs} is [1], the pool has zero workers, or
    the caller is itself a pool worker (nested [parallel_map] does not
    deadlock — it degrades to the sequential path).  Without [?pool] and
    with [default_jobs () > 1], an ephemeral pool is created and shut
    down around the call.

    If [f] raises on any element, the first exception observed is
    re-raised in the caller after the whole batch has drained (remaining
    elements are still evaluated; [f] is expected to be cheap to run and
    pure, so no cancellation is attempted). *)

val shutdown : t -> unit
(** Joins all workers.  Idempotent.  Using the pool after [shutdown]
    runs batches sequentially on the caller. *)
