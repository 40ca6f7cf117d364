(** Automatic design scale-up (the §7 challenge 1 extension).

    The paper notes that TAPA-CS partitions an already-scaled design but
    FPGA programmers still size PE counts, widths and tiling by hand, and
    announces work on "map-reduce style" automated scaling.  This module
    implements that advisor over the roofline implied by our device and
    network models: given a data-parallel kernel profile and a cluster,
    it chooses the replication factor and port width per device and
    predicts which wall (compute / memory / network) the scaled design
    hits. *)

open Tapa_cs_device

type kernel = {
  name : string;
  elems : float;  (** total elements of work *)
  ops_per_elem : float;
  bytes_per_elem : float;  (** external-memory traffic per element *)
  pe_resources : Resource.t;  (** one processing element *)
  pe_lanes : int;  (** elements per cycle one PE sustains *)
  exchange_bytes : float;  (** inter-partition traffic per device boundary *)
}

type bound = Compute | Memory | Network

type plan = {
  fpgas : int;
  pes_per_fpga : int;
  port_width_bits : int;
  predicted_bound : bound;
  predicted_latency_s : float;
  per_fpga_elem_rate : float;  (** elements/second each device sustains *)
  pe_cap_by_resources : int;  (** the Eq. 1 replication ceiling *)
}

val plan : ?threshold:float -> cluster:Cluster.t -> kernel -> plan
(** Size the kernel for the whole cluster.  PEs are replicated up to the
    smaller of the resource ceiling and the point where the device's HBM
    bandwidth is saturated (adding PEs past that is waste, §3); the port
    width is the narrowest power of two that sustains the per-PE traffic
    at the design clock. *)

val sweep : ?threshold:float -> cluster:Cluster.t -> kernel -> (int * plan) list
(** The plan at every cluster size from 1 to the full cluster — the
    scaling curve an engineer would sketch by hand. *)

val to_graph :
  cluster:Cluster.t -> kernel -> plan -> Tapa_cs_graph.Taskgraph.t * int array
(** Lower a plan into the PE-level task graph it describes — one
    data-parallel PE task per replica (with its HBM port share) plus a
    bidirectional halo-exchange FIFO pair between neighbouring devices —
    and the task->FPGA assignment.  This is the bridge from the analytic
    advisor to the event simulator. *)

val measured_sweep :
  ?jobs:int ->
  ?chunks:int ->
  ?threshold:float ->
  cluster:Cluster.t ->
  kernel ->
  (int * plan * Tapa_cs_sim.Design_sim.outcome) list
(** {!sweep}, with every point also lowered via {!to_graph} and run
    through the {!Tapa_cs_sim.Sim_sweep} parallel harness: the scaling
    curve as the timed dataflow model sees it, next to the roofline
    prediction.  [jobs] is the sweep parallelism (results are
    byte-identical for every value); simulation results come from the
    content-addressed cache when warm. *)

val measured_sweep_slo :
  ?jobs:int ->
  ?chunks:int ->
  ?threshold:float ->
  slo_latency_s:float ->
  cluster:Cluster.t ->
  kernel ->
  (int * plan * Tapa_cs_sim.Sim_sweep.slo_row) list
(** {!measured_sweep} with static pruning: a point whose certified lower
    latency bound ({!Tapa_cs_analysis.Static_perf.bounds}) already
    exceeds the SLO comes back as [Pruned] without simulating — sound,
    because the simulated latency can only be higher.  Each pruned point
    bumps {!Tapa_cs_sim.Sim_sweep.static_pruned} (reported by the CLI's
    [--stats-json] as ["static_pruned"]). *)

val bound_name : bound -> string
val pp_plan : Format.formatter -> plan -> unit
