(** Deterministic discrete-time controller for a fault-tolerant
    multi-tenant FPGA farm.

    The controller admits a stream of arriving {!Tenant.t} designs onto a
    (typically heterogeneous) {!Tapa_cs_device.Cluster.t}, placing each
    with {!Tapa_cs_floorplan.Inter_fpga.run_degraded}: boards owned by
    co-located tenants are masked (they keep forwarding packets but take
    no tasks), dead boards and downed links come from the live
    {!Tapa_cs_network.Fault.timeline}.  On each fault event only the
    displaced tenants re-place — {!Tapa_cs_floorplan.Inter_fpga.replace}
    returns untouched placements unchanged — under a bounded
    retry/backoff budget ([max_retries] attempts, [backoff_s * 2^i]
    spacing).  Strict-SLO tenants fail over to spare capacity or are
    explicitly reported down; best-effort tenants accept the relaxation
    ladder.

    Availability accounting is exact by construction: each tenant's
    healthy/degraded/down seconds are accrued between consecutive events,
    so they always sum to [horizon - arrival].  Everything here runs on
    the simulated farm clock — the emitted {!stats_json} carries no
    wall-clock field and is a pure function of (cluster, workload,
    timeline, config), identical across runs and [jobs] values. *)

open Tapa_cs_device

type health = Healthy | Degraded | Down
(** [Healthy]: placed at the requested threshold, no greedy rung, every
    cut FIFO routable, no ambient-loss episode touching its traffic.
    [Degraded]: placed, but one of those holds.  [Down]: not placed
    (awaiting a retry, or out of retry budget). *)

val health_label : health -> string

type config = {
  threshold : float;  (** requested per-board utilization ceiling *)
  seed : int;  (** root of every per-tenant solver seed *)
  max_retries : int;  (** consecutive failed placement attempts allowed *)
  backoff_s : float;  (** base retry spacing; doubles per failure *)
  horizon_s : float;  (** farm-clock end of the run *)
}

val default_config : config
(** Threshold {!Tapa_cs_device.Constants.utilization_threshold}, seed 1,
    3 retries, 5 s backoff, 600 s horizon. *)

type tenant_report = {
  tenant : Tenant.t;
  final_health : health;
  failed_over : bool;  (** ever re-placed onto a different board set *)
  gave_up : bool;  (** exhausted the retry budget; explicitly down *)
  placements : int;  (** successful installs, initial one included *)
  replacements : int;  (** installs that replaced a live placement *)
  attempts : int;  (** solver attempts, failures included *)
  healthy_s : float;
  degraded_s : float;
  down_s : float;  (** the three always sum to [horizon - arrival] *)
  devices : int list;  (** boards owned at the horizon *)
}

type fault_report = {
  at_s : float;
  event : string;
  displaced : int list;  (** tenant ids the event forced to re-place *)
  ttr_s : float option;
      (** farm-clock delay until the last displaced tenant was placed
          again; [Some 0.] when re-placement succeeded at the fault
          instant, [None] when some displaced tenant never recovered *)
}

type sample = {
  t_s : float;
  label : string;  (** events processed at this instant *)
  placed : int;
  dead_devices : int;
  utilization : float;  (** tenant-owned fraction of the alive boards *)
  fragmentation : float;
      (** [1 - largest-single-node free block / total free boards]: 0
          when the free capacity is one contiguous node, approaching 1 as
          it shatters across nodes *)
  max_link_sharers : int;
      (** most tenants whose cut traffic shares one physical link, over
          deterministic BFS shortest routes *)
}

type stats = {
  boards : int;
  horizon_s : float;
  seed : int;
  tenants : tenant_report list;  (** in tenant-id order *)
  faults : fault_report list;  (** in event order *)
  timeline : sample list;  (** one per processed instant, in time order *)
  reused : int;
      (** re-placement rounds answered by the unaffected fast path — the
          placement (and its cached solve) survived the fleet change *)
  frag_hits : int;
      (** per-group floorplan subproblems replayed from the fragment
          cache during this run — e.g. the untouched node groups of a
          re-placement after a board death, or content-identical
          subproblems shared across tenants *)
  frag_misses : int;  (** subproblem lookups that had to solve *)
  groups_resolved : int;
      (** subproblems actually (re-)solved — the cumulative dirty set *)
}

val run :
  ?pool:Tapa_cs_util.Pool.t ->
  ?config:config ->
  cluster:Cluster.t ->
  timeline:Tapa_cs_network.Fault.timeline ->
  Tenant.t list ->
  stats
(** Run the farm to the horizon.  [pool] parallelizes the per-tenant
    solver portfolios (wall-clock only; the stats are bit-identical with
    and without it).  Tenants arriving after the horizon are ignored.
    Starts from cold floorplan caches (solution + fragment), so the
    emitted stats — including the fragment-cache counters — are a pure
    function of the inputs, independent of process history.

    @raise Invalid_argument when [config.backoff_s] or
    [config.horizon_s] is negative or not finite (a NaN retry time would
    never drain from the event loop). *)

val total_tenant_s : stats -> float
(** Sum of every tenant's three buckets = total accounted tenant-time. *)

val mean_ttr_s : stats -> float option
(** Mean time-to-recover over faults that fully recovered; [None] when
    no fault did. *)

val stats_json : stats -> string
(** Machine-readable stats timeline.  No wall-clock content: byte-
    identical across runs and [--jobs] values for equal inputs. *)

val pp_summary : Format.formatter -> stats -> unit
