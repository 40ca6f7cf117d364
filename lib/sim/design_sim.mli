(** End-to-end timed simulation of a compiled multi-FPGA design.

    Builds one simulator process per task, one channel per FIFO, and one
    serially-shared {!Engine.Server} per directed FPGA pair (the AlveoLink
    port — this is where the CNN's many-writers contention of §5.5 shows
    up).  Tasks stream data in chunks, so downstream FPGAs overlap with
    upstream ones exactly when the dataflow allows it; [Bulk] FIFOs force
    the §5.2 sequential-stencil behaviour.

    Every task advances one chunk per step: it pulls a chunk from each
    stream input, computes for {!chunk_split}'s chunk time, then pushes a
    chunk to each output, blocking on a full or empty channel.  A
    cross-FPGA FIFO is a source-side channel, a mover process and a
    destination-side channel; the mover moves one chunk at a time (a
    bulk FIFO's whole volume at once) through the link's server.

    FIFOs that close a dependency cycle (PageRank's PE/controller loop)
    receive one chunk of initial credit, the standard synchronous-dataflow
    treatment of feedback edges.

    {2 Simulation cache}

    Results are memoized under a canonical content digest of everything
    the simulator reads: graph structure and per-task synthesis keys,
    assignment, clocks, cluster hop/locality tables, synthesis timing
    profiles, applied port-bandwidth and stage-cycle tables, chunk count,
    and the consumed fault fields ([loss_rate], [device_halts],
    [fifo_stalls] — [seed], [failed_devices] and [failed_links] never
    reach the simulator and are deliberately excluded).  Warm hits return
    a defensive copy; cold and warm results are bit-identical. *)

open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls

type config = {
  graph : Taskgraph.t;
  assignment : int array;  (** task id -> FPGA index *)
  freq_mhz : float array;  (** per FPGA *)
  cluster : Cluster.t;
  synthesis : Synthesis.report;
  port_bandwidth_gbps : int -> int -> float;  (** task id, port index -> GB/s *)
  extra_stage_cycles : int -> int;  (** fifo id -> pipeline stages added *)
  chunks : int;  (** simulation granularity: chunks per task stream *)
}

val default_chunks : int

type link_stat = { src_fpga : int; dst_fpga : int; bytes : float; busy_s : float }

type task_stat = {
  task_id : int;
  fpga : int;
  start_s : float;  (** first cycle of useful work *)
  finish_s : float;
  busy_s : float;  (** accumulated compute time *)
}

type result = {
  latency_s : float;
  events : int;
  deadlocked : string list;
  per_fpga_busy_s : float array;  (** summed task compute time per FPGA *)
  links : link_stat list;
  tasks : task_stat array;  (** indexed by task id *)
}

exception
  Deadlock of {
    tasks : string list;  (** names of the blocked tasks *)
    fifos : int list;  (** ids of inter-FPGA FIFOs stuck mid-transfer *)
    message : string;
        (** full report, pointing at the matching linter codes (TCS101:
            bulk FIFO on a cycle; TCS102: under-sized feedback FIFO) *)
  }

(** Structured run status for fault-injected simulations — the
    no-exceptions counterpart of {!run}. *)
type outcome =
  | Completed of result  (** clean run, no faults applied *)
  | Degraded of { result : result; reasons : string list }
      (** the run finished, but faults slowed or perturbed it; [reasons]
          lists each injected fault that actually bit *)
  | Failed of { fault : string; partial : result }
      (** the run could not finish — a device halt starved the dataflow,
          or the design deadlocked; [partial] holds the statistics up to
          the stall point *)

val fpga_idle_fraction : result -> fpga:int -> float
(** 1 - (average task busy time on this FPGA / makespan): the §5.2/§5.5
    idle-PE metric.  0 when the device computes the whole run. *)

val run : ?cache:bool -> config -> result
(** Simulate the design.  [cache] (default [true]) consults the
    content-addressed result cache first.
    @raise Deadlock when the simulation cannot make progress, naming the
    blocked tasks and FIFOs — the dynamic counterpart of the TCS101/TCS102
    lints, which catch these designs statically. *)

val run_outcome : ?cache:bool -> ?faults:Tapa_cs_network.Fault.plan -> config -> outcome
(** Like {!run}, but injects the plan's simulator-level faults and never
    raises on stalls.  Packet loss derates every link server by the
    closed-form go-back-N slowdown (deterministic — no sampling);
    [device_halts] abandon a device's tasks at the given time;
    [fifo_stalls] freeze a FIFO's data movement for a window.  The
    compile-level fields ([failed_devices], [failed_links]) are ignored
    here — they act before simulation, in
    {!Tapa_cs_floorplan.Inter_fpga.run_degraded}. *)

val make_config :
  ?chunks:int ->
  ?port_bandwidth_gbps:(int -> int -> float) ->
  ?extra_stage_cycles:(int -> int) ->
  graph:Taskgraph.t ->
  assignment:int array ->
  freq_mhz:float array ->
  cluster:Cluster.t ->
  synthesis:Synthesis.report ->
  unit ->
  config
(** Convenience constructor; the port bandwidth defaults to the full
    per-channel HBM bandwidth and no extra pipeline latency. *)

(** {2 Timing model}

    The arithmetic every simulated wait is made of, exposed so that the
    static performance bounds ([Static_perf]) price a design with the
    very same float expressions instead of a copy of them. *)

val link_service : config -> loss_rate:float -> int -> int -> Engine.Server.params
(** [link_service cfg ~loss_rate i j]: the server parameters of the
    directed link from FPGA [i] to FPGA [j].  The link type comes from
    node co-location and the cluster's interconnect; rate, latency and
    per-packet overhead scale with the hop count, and a positive
    [loss_rate] derates rate and overhead by the closed-form go-back-N
    slowdown. *)

type chunk_split = {
  compute_s : float;  (** [steady_cycles / chunks / clock] *)
  memory_s : float;  (** the slowest memory port's [bytes / chunks / bandwidth]; 0 without ports *)
  mem_port : int;  (** index of that port; [-1] when no port has positive bandwidth *)
}

val chunk_split : config -> Task.t -> chunk_split
(** One task's per-chunk time, split into its terms: the simulated chunk
    takes [Float.max compute_s memory_s]. *)

(** {2 Cache observability} *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of the simulation result cache since start (or the
    last {!reset_cache}).  Observability only — never feeds back into
    simulated values. *)

val reset_cache : unit -> unit
(** Drop all cached results and zero the counters (tests, benches). *)
