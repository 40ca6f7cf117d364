(** The TAPA-CS compiler: the seven steps of §4.2.

    0. static design lint ({!Tapa_cs_analysis.Lint.precheck}): any
       error-severity diagnostic — dead task, bulk feedback cycle,
       cluster over-subscription, invalid channel binding — aborts the
       compile with rendered [TCS] diagnostics before the ILP runs;
    1. task-graph construction (done by the caller / {!Frontend});
    2. task extraction and parallel synthesis;
    3. inter-FPGA floorplanning (ILP, Eqs. 1–3);
    4. inter-FPGA communication logic insertion (AlveoLink);
    5. intra-FPGA floorplanning (recursive bisection, Eq. 4) plus HBM
       channel binding exploration;
    6. interconnect pipelining with cut-set balancing;
    7. "bitstream generation" — here, the frequency estimate and the final
       design report handed to the simulator. *)

open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls
open Tapa_cs_floorplan
open Tapa_cs_pipeline
open Tapa_cs_freq

type t = {
  graph : Taskgraph.t;
  cluster : Cluster.t;
  synthesis : Synthesis.report;
  inter : Inter_fpga.t;
  intra : Intra_fpga.t array;  (** one per FPGA *)
  hbm : Hbm_binding.t array;
  pipeline : Pipelining.t array;
  freq : Freq_model.estimate array;
  freq_mhz : float;  (** design clock: the minimum across devices *)
  l1_runtime_s : float;  (** inter-FPGA floorplanner time (§5.6) *)
  l2_runtime_s : float;  (** intra-FPGA floorplanner time (§5.6) *)
  degraded : bool;
      (** some recovery path fired: a floorplan fallback rung or a
          refloorplan onto a pruned topology *)
  fallbacks : string list;  (** which, in firing order; empty when healthy *)
  static : Tapa_cs_analysis.Static_perf.t;
      (** closed-form performance bounds of the compiled design at the
          simulator's default chunking: certified latency interval,
          steady-state initiation interval with its bottleneck, and
          minimal deadlock-free FIFO depths.  Computed under the fault
          plan's loss rate when one is set. *)
}

type options = {
  strategy : Partition.strategy;
  threshold : float;
  seed : int;
  explore_hbm : bool;  (** HBM binding exploration (§4.5); ablation knob *)
  pipeline_interconnect : bool;  (** §4.6; ablation knob *)
  lint : bool;  (** run the step-0 static lint gate (default [true]) *)
  jobs : int;
      (** worker domains for the parallel stages (synthesis, per-FPGA
          floorplan/HBM/pipelining/frequency).  Default
          {!Tapa_cs_util.Pool.default_jobs} ([TAPA_CS_JOBS] env override,
          else the recommended domain count); [1] = fully sequential.
          The compile result is bit-identical for every value. *)
  fault_plan : Tapa_cs_network.Fault.plan option;
      (** injected faults (default [None]).  Failed devices and downed
          links reroute step 3 through {!Inter_fpga.run_degraded} on the
          surviving sub-topology; the plan's loss rate and mid-run events
          are consumed by the simulator, not the compiler.  All stochastic
          draws derive from the plan's seed, so a given (design, plan)
          pair compiles bit-identically across runs and [jobs]. *)
  verify_static : bool;
      (** differential gate (default [false]): simulate the compiled
          design once and fail the compile with a rendered TCS503
          diagnostic if the simulated latency falls outside the static
          [lower, upper] interval.  The [TAPA_CS_INJECT_STATIC_VIOLATION]
          environment variable corrupts the interval first — the
          soundness gate uses it to prove the check can fire. *)
}

val default_options : options

val compile :
  ?options:options ->
  ?pool:Tapa_cs_util.Pool.t ->
  cluster:Cluster.t ->
  Taskgraph.t ->
  (t, string) Stdlib.result
(** [Error] carries either the rendered step-0 diagnostics (each line
    tagged with its [TCS] code) or a placement/routing failure reason.
    With [options.jobs > 1] the synthesis estimates and the per-FPGA
    stage tail run on a worker-domain pool; results are assembled in
    index order so the output does not depend on [jobs].  [pool] shares a
    caller-owned worker pool across compiles (sweeps, the farm
    controller) instead of spawning one per compile; it overrides
    [options.jobs] and is never shut down here. *)

type solver_stats = Tapa_cs_ilp.Counters.t = {
  lp_solves : int;
  lp_pivots : int;
  lp_certified : int;
  lp_fallbacks : int;
  bb_nodes : int;
  refinement_moves : int;
  subproblems : int;
  races_exact : int;
  races_anneal : int;
  incumbent_broadcasts : int;
}
(** The solver counter record, re-exported; the fields are documented
    in {!Tapa_cs_ilp.Counters}. *)

val solver_stats : t -> solver_stats
(** Solver counters summed with {!Tapa_cs_ilp.Counters.add} over the
    inter-FPGA solve and every intra-FPGA bisection level.  Derived purely from the compile result,
    so it is bit-identical across [jobs] settings and cache states — a
    floorplan-cache hit replays the stored stats of the solve that
    produced it.  Process-wide cache hit/miss counts (which {e do}
    depend on what ran earlier) are reported separately by
    {!Partition.cache_stats} and {!Partition.fragment_stats}. *)

val slot_of : t -> int -> int option
(** Final slot of a task on its FPGA. *)

val fpga_of : t -> int -> int
val port_bandwidth_gbps : t -> int -> int -> float
(** Effective HBM bandwidth of a task's memory port after binding,
    additionally capped by [port_width x clock]. *)

val extra_stage_cycles : t -> int -> int
(** Pipeline stages added to a FIFO (insertion + balancing). *)

val pp_summary : Format.formatter -> t -> unit
