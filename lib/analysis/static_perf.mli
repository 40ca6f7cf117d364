(** Closed-form performance bounds for a compiled design.

    Computes, without running the simulator, (a) a steady-state
    throughput bound as the bottleneck over task initiation intervals,
    inter-FPGA link service under the chosen floorplan (and loss-derated
    fault plan), and HBM pseudo-channel contention (which enters through
    the config's [port_bandwidth_gbps]); (b) a certified latency interval
    [[lower, upper]] for the end-to-end makespan; and (c) minimal
    deadlock-free FIFO depths on reconvergent paths.

    The bounds price a design with the simulator's own timing functions
    — {!Tapa_cs_sim.Design_sim.chunk_split} for a task's chunk time,
    {!Tapa_cs_sim.Design_sim.link_service} and
    {!Tapa_cs_sim.Engine.Server.service_time} for a link transfer — and
    the same chunking, so they are sound against the simulated latency:

    - [latency_lower_s]: the maximum over (i) each task's own iterated
      wait sum (startup + pipeline-stage latency + [chunks] chunk times;
      the simulator only ever {e delays} a fiber beyond this, and float
      rounding is monotone, so the iterated sum is an exact float lower
      bound) and (ii) each directed link server's total service plus one
      one-way latency, under a [1 - 1e-9] relative margin for summation
      order.
    - [latency_upper_s]: every time advancement in the simulator ends a
      timed wait, and each advancement interval lies inside the
      union of task-wait durations, link busy intervals and per-transfer
      latency tails; summing all of them (plus one spare piece per cut
      streaming FIFO for mover float-accumulation slack) under a
      [1 + 1e-9] margin bounds the makespan from above.

    Bounds apply to runs that complete: deadlocks, device halts and FIFO
    stalls are out of model ([loss_rate] is in model — it derates the
    link servers closed-form, exactly as the simulator does). *)

open Tapa_cs_graph
module Design_sim := Tapa_cs_sim.Design_sim

type bottleneck =
  | Task_compute of { task_id : int }
      (** steady-state is limited by this task's per-chunk compute *)
  | Task_memory of { task_id : int; port_index : int }
      (** limited by this memory port's share of HBM channel bandwidth *)
  | Link of { src_fpga : int; dst_fpga : int }
      (** limited by the directed inter-FPGA link's per-chunk service *)

type t = {
  latency_lower_s : float;  (** certified lower bound on makespan *)
  latency_upper_s : float;  (** certified upper bound on makespan *)
  steady_ii_s : float;
      (** steady-state initiation interval: seconds between chunk
          completions once every stage is primed *)
  throughput_chunks_per_s : float;  (** [1 / steady_ii_s] *)
  bottleneck : bottleneck option;  (** what pins [steady_ii_s]; [None] on an empty graph *)
  min_depths : (int * int) list;
      (** (fifo id, minimal deadlock-free depth in elements); only
          populated by {!analyze} — {!bounds} leaves it empty *)
}

val bounds : ?loss_rate:float -> Design_sim.config -> t
(** The fast path: latency interval, initiation interval and bottleneck
    only ([min_depths] is left empty).  Microsecond-scale — cheap enough
    to screen every point of a sweep before simulating it. *)

val analyze : ?loss_rate:float -> Design_sim.config -> t
(** {!bounds} plus the bounded-channel depth analysis: re-runs the
    latency-balancing pass with every FIFO treated as a unit crossing and
    reads off, per FIFO, the path imbalance its depth must absorb
    (floored at 2 for double buffering). *)

val min_depth_floor : int
(** The double-buffering floor applied to every minimal depth (2). *)

val oversize_factor : int
(** A FIFO at least this many times deeper than its minimal depth (and
    deeper than [oversize_factor] absolute) is flagged wasteful (64). *)

val depth_diagnostics : graph:Taskgraph.t -> t -> Diagnostic.t list
(** TCS501 (warning) for each FIFO whose declared depth is below its
    minimal deadlock-free depth; TCS502 (info) for each FIFO wastefully
    oversized versus that bound.  Requires a {!analyze} result. *)

val interval_check : t -> latency_s:float -> Diagnostic.t option
(** [Some] TCS503 (error) when a simulated latency falls outside
    [[latency_lower_s, latency_upper_s]] — the analytic model and the
    simulator disagree, so neither can be trusted. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human summary: interval, II, throughput, bottleneck. *)
