(** Level-1 floorplanning (§4.3): map every task to an FPGA of the
    cluster, minimizing width-weighted topology distance (Eq. 2) under the
    per-device utilization threshold (Eq. 1).

    Capacities are reduced by the AlveoLink networking IP overhead on
    every board that participates in inter-FPGA links (§5.6).

    Placement failures are typed (not strings) so callers can react
    per-cause, and every solve runs a graceful-degradation chain: the
    primary partitioner, then warm-started re-solves climbing a
    threshold-relaxation ladder (+0.05 per rung, up to 0.95), then a
    deterministic greedy packer.  Rungs that fire are recorded in
    [fallbacks], and [threshold_used] reports the rung that finally
    succeeded so downstream stages can budget consistently. *)

open Tapa_cs_util
open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls

type t = {
  assignment : int array;  (** task id -> FPGA index *)
  cut_fifos : Fifo.t list;  (** FIFOs crossing devices *)
  traffic_bytes : float;  (** inter-FPGA volume, hop-weighted *)
  per_fpga_usage : Resource.t array;
  per_fpga_util : float array;  (** max component utilization per device *)
  cost : float;  (** Eq. 2 objective of the chosen mapping *)
  stats : Partition.stats;
  fallbacks : string list;
      (** degradation rungs that fired, outermost first: e.g.
          ["degraded(3/4 FPGAs)"; "relaxed-threshold(0.75)"]; empty on the
          happy path *)
  threshold_used : float;
      (** the utilization threshold of the rung that produced this
          mapping; equals the requested threshold unless a
          relaxed-threshold fallback fired *)
}

type error =
  | Infeasible  (** no feasible mapping exists (or none was found) *)
  | Over_capacity of int
      (** every fallback produced only over-capacity mappings; carries the
          smallest number of over-budget devices across attempts *)
  | Solver_timeout
      (** the exact solver hit a wall-clock deadline with no feasible
          incumbent.  Nothing in this library produces it any more (the
          solver has no deadline); it stays so that callers matching on
          it, and its TCS307 registry entry, keep compiling. *)

val error_code : error -> string
(** Matching TCS diagnostic code: TCS305 / TCS306 / TCS307 (the linter's
    registry in {!Tapa_cs_analysis.Diagnostic} is the source of truth). *)

val error_message : error -> string
val pp_error : Format.formatter -> error -> unit

val capacities : threshold:float -> Cluster.t -> Resource.t array
(** Per-FPGA resource budgets the partitioner enforces: [threshold] x the
    board totals, minus the AlveoLink networking overhead on every QSFP
    port whenever the cluster spans more than one device.  Exposed so the
    linter's capacity pre-check is consistent with the floorplanner. *)

val run :
  ?strategy:Partition.strategy ->
  ?threshold:float ->
  ?seed:int ->
  ?pool:Pool.t ->
  cluster:Cluster.t ->
  synthesis:Synthesis.report ->
  Taskgraph.t ->
  (t, error) Stdlib.result
(** Floorplan onto the full healthy cluster.  [Error] only after the
    whole fallback chain is exhausted.

    Multi-node clusters route large [Auto] instances through
    {!Partition}'s hierarchical decomposition, grouped by server node:
    the per-node subproblems are independent and are solved
    concurrently on [pool], each by simulated annealing and then, unless
    the anneal provably meets the LP bound, exact branch-and-bound.
    [pool] is a wall-clock lever only: the mapping, cost and stats are
    identical with and without it. *)

val run_degraded :
  ?strategy:Partition.strategy ->
  ?threshold:float ->
  ?seed:int ->
  ?pool:Pool.t ->
  ?failed_devices:int list ->
  ?failed_links:(int * int) list ->
  ?masked_devices:int list ->
  ?warm_assignment:int array ->
  cluster:Cluster.t ->
  synthesis:Synthesis.report ->
  Taskgraph.t ->
  (t, error) Stdlib.result
(** Refloorplan onto the surviving sub-topology: [failed_devices] are
    excluded outright, [failed_links] (undirected device pairs) are
    removed from the hop metric, and distances are recomputed by BFS over
    what remains — disconnected pairs get a large finite distance so the
    solve degrades instead of crashing.  The returned [assignment] still
    indexes the original cluster (failed devices simply receive no
    tasks), and [fallbacks] is prefixed with a [degraded(k'/k FPGAs)]
    tag.  With nothing failed this is exactly {!run}.

    [masked_devices] are the multi-tenant overlay: boards owned by other
    tenants receive no tasks but stay in the BFS routing metric (they
    still forward packets), and masking alone adds no [degraded] tag.
    [warm_assignment] seeds the relaxation ladder with a previous
    device-space assignment (tasks stranded on dead or masked devices are
    remapped arbitrarily; an infeasible seed is dropped silently), which
    is how a re-placement after a small fault converges fast. *)

val unreachable_dist : int
(** Surrogate hop count reported for device pairs the surviving topology
    cannot connect — large but finite so solves degrade instead of
    crashing. *)

val survivor_hops :
  ?failed_devices:int list -> ?failed_links:(int * int) list -> Cluster.t -> int -> int -> int
(** [survivor_hops cluster] precomputes (eagerly, O(k^2) BFS) the hop
    metric of the surviving sub-topology that {!run_degraded} uses:
    unit-distance edges of the original topology minus failed devices and
    downed links.  Unreachable or out-of-range pairs get
    {!unreachable_dist}; the diagonal is 0.  Snapshot one of these at
    placement time and hand it to {!affected} as the [baseline]. *)

val devices_used : t -> int list
(** Ascending device indices actually hosting at least one task. *)

val cut_pairs : t -> (int * int) list
(** Normalized [(min, max)] device pairs joined by at least one cut FIFO,
    sorted, deduplicated. *)

val affected : alive:(int -> bool) -> hops:(int -> int -> int) -> baseline:(int -> int -> int) -> t -> bool
(** Does a fleet change touch this placement?  True iff some used device
    is no longer [alive], or some cut pair's hop distance under the
    current [hops] metric differs from the [baseline] snapshot taken when
    the placement was made (covering both links going down {e and}
    recovering). *)

val replace :
  ?strategy:Partition.strategy ->
  ?threshold:float ->
  ?seed:int ->
  ?pool:Pool.t ->
  ?failed_devices:int list ->
  ?failed_links:(int * int) list ->
  ?masked_devices:int list ->
  ?baseline:(int -> int -> int) ->
  prev:t ->
  cluster:Cluster.t ->
  synthesis:Synthesis.report ->
  Taskgraph.t ->
  (t, error) Stdlib.result
(** Incremental re-placement.  When [baseline] is given and {!affected}
    says the fleet change leaves [prev] untouched (all its devices alive
    and unmasked, all its cut-pair hop distances unchanged), returns
    [Ok prev] without solving — the farm's cache-reuse fast path for
    unaffected tenants.  Otherwise {!run_degraded} warm-started from
    [prev.assignment]. *)
