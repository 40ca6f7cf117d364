open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls
open Tapa_cs_floorplan
open Tapa_cs_pipeline
open Tapa_cs_freq
module Pool = Tapa_cs_util.Pool
module Fault = Tapa_cs_network.Fault
module Design_sim = Tapa_cs_sim.Design_sim
module Static_perf = Tapa_cs_analysis.Static_perf
module Diagnostic = Tapa_cs_analysis.Diagnostic

type t = {
  graph : Taskgraph.t;
  cluster : Cluster.t;
  synthesis : Synthesis.report;
  inter : Inter_fpga.t;
  intra : Intra_fpga.t array;
  hbm : Hbm_binding.t array;
  pipeline : Pipelining.t array;
  freq : Freq_model.estimate array;
  freq_mhz : float;
  l1_runtime_s : float;
  l2_runtime_s : float;
  degraded : bool;
  fallbacks : string list;
  static : Static_perf.t;
}

type options = {
  strategy : Partition.strategy;
  threshold : float;
  seed : int;
  explore_hbm : bool;
  pipeline_interconnect : bool;
  lint : bool;
  jobs : int;
  fault_plan : Fault.plan option;
  verify_static : bool;
}

let default_options =
  {
    strategy = Partition.Auto;
    threshold = Constants.utilization_threshold;
    seed = 1;
    explore_hbm = true;
    pipeline_interconnect = true;
    lint = true;
    jobs = Tapa_cs_util.Pool.default_jobs ();
    fault_plan = None;
    verify_static = false;
  }

let ( let* ) = Result.bind

(* Accessors shared by the public API below and the in-compile static
   analysis (which runs before the result record exists), so the two can
   never drift apart. *)
let port_bandwidth_gbps' ~cluster ~graph ~freq_mhz ~hbm ~assignment tid port_index =
  let fpga = assignment.(tid) in
  let board = Cluster.board cluster fpga in
  let bound =
    Hbm_binding.effective_port_bandwidth_gbps board hbm.(fpga) ~task_id:tid ~port_index
  in
  let task = Taskgraph.task graph tid in
  match List.nth_opt task.Task.mem_ports port_index with
  | None -> 0.0
  | Some p ->
    let wire = float_of_int p.Task.width_bits /. 8.0 *. freq_mhz *. 1e6 /. 1e9 in
    Float.min bound wire

let extra_stage_cycles' ~pipeline fid =
  Array.fold_left (fun acc p -> acc + Pipelining.stages_of p fid) 0 pipeline

let compile ?(options = default_options) ?pool ~cluster graph =
  (* One worker pool for every parallel stage of this compile.  A caller
     running many compiles (sweeps, the farm controller) passes its own
     [?pool] to amortize domain spawning; otherwise one is created for
     this compile and torn down after.  [jobs = 1] (or a single-core
     host) keeps the whole pipeline on the calling domain; either way the
     output is bit-identical because every parallel_map assembles its
     results in index order. *)
  let own_pool =
    match pool with
    | Some _ -> None
    | None -> if options.jobs > 1 then Some (Pool.create ~domains:(options.jobs - 1) ()) else None
  in
  let pool = match pool with Some _ -> pool | None -> own_pool in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown own_pool) @@ fun () ->
  (* Step 2: parallel synthesis against the first board model (clusters
     are homogeneous in the paper's testbed). *)
  let board0 = Cluster.board cluster 0 in
  let synthesis = Synthesis.run ~board:board0 ?pool graph in
  (* Step 0 (run once synthesis areas exist): static design lint.  The
     error-severity diagnostics are exactly the defects the later steps
     would fail on anyway — but with a code and a fix hint instead of an
     ILP timeout or a simulator deadlock. *)
  let* () =
    if not options.lint then Ok ()
    else
      match
        Tapa_cs_analysis.Lint.precheck ~threshold:options.threshold ~cluster ~synthesis graph
      with
      | [] -> Ok ()
      | errors -> Error (Tapa_cs_analysis.Diagnostic.render errors)
  in
  (* Step 3: inter-FPGA floorplanning.  A fault plan removes dead devices
     and downed links from the topology before the solve. *)
  let failed_devices, failed_links =
    match options.fault_plan with
    | Some p -> (p.Fault.failed_devices, p.Fault.failed_links)
    | None -> ([], [])
  in
  let inter_result =
    if failed_devices = [] && failed_links = [] then
      Inter_fpga.run ~strategy:options.strategy ~threshold:options.threshold ~seed:options.seed
        ?pool ~cluster ~synthesis graph
    else
      Inter_fpga.run_degraded ~strategy:options.strategy ~threshold:options.threshold
        ~seed:options.seed ?pool ~failed_devices ~failed_links ~cluster ~synthesis graph
  in
  let* inter =
    Result.map_error
      (fun e ->
        Format.asprintf "inter-FPGA floorplanning failed %a" Diagnostic.pp
          (Tapa_cs_analysis.Lint.floorplan_error e))
      inter_result
  in
  let fallbacks = inter.Inter_fpga.fallbacks in
  let degraded = fallbacks <> [] in
  (* If the inter-FPGA solve only succeeded at a relaxed threshold, the
     per-device floorplans must budget slots at (at least) the same rung —
     a device legitimately holding 80 % of its fabric cannot be split into
     70 %-budget slots. *)
  let intra_threshold = Float.max options.threshold inter.Inter_fpga.threshold_used in
  (* Step 4: communication logic is charged as capacity inside Inter_fpga;
     the cut FIFOs recorded there become AlveoLink streams in the
     simulator. *)
  let k = Cluster.size cluster in
  (* Step 5: intra-FPGA floorplanning per device, cut FIFOs pulling their
     endpoints toward the QSFP slots. *)
  let cut_width = Array.make (Taskgraph.num_tasks graph) 0.0 in
  List.iter
    (fun (f : Fifo.t) ->
      cut_width.(f.src) <- cut_width.(f.src) +. float_of_int f.width_bits;
      cut_width.(f.dst) <- cut_width.(f.dst) +. float_of_int f.width_bits)
    inter.Inter_fpga.cut_fifos;
  (* Steps 5-7 fused into one per-FPGA task: intra floorplan, HBM binding
     exploration, interconnect pipelining (crossings are local to the
     device) and the frequency model all depend only on that device's
     assignment, so each FPGA runs its whole tail of the pipeline on one
     worker.  Results assemble in FPGA index order; on failure the
     lowest-index error is reported — the same one the old sequential
     recursion would have stopped at. *)
  let per_fpga =
    Pool.parallel_map ?pool
      (fun fpga ->
        let board = Cluster.board cluster fpga in
        let tasks =
          List.filter
            (fun tid -> inter.Inter_fpga.assignment.(tid) = fpga)
            (List.init (Taskgraph.num_tasks graph) Fun.id)
        in
        let* placement =
          Intra_fpga.run ~strategy:options.strategy ~threshold:intra_threshold
            ~seed:options.seed ~board ~synthesis ~graph ~tasks
            ~io_pull:(fun tid -> cut_width.(tid))
            ()
        in
        let hbm =
          Hbm_binding.run ~explore:options.explore_hbm ~board ~graph
            ~slot_of:placement.Intra_fpga.slot_of ()
        in
        let pipeline =
          if options.pipeline_interconnect then
            Pipelining.run ~graph ~crossings:placement.Intra_fpga.crossings
          else Pipelining.run ~graph ~crossings:[]
        in
        let freq =
          Freq_model.of_placement ~board ~synthesis ~graph
            ~slot_of:placement.Intra_fpga.slot_of ~pipelined:options.pipeline_interconnect ()
        in
        Ok (placement, hbm, pipeline, freq))
      (Array.init k Fun.id)
  in
  let* staged =
    Array.fold_right
      (fun r acc ->
        let* r = r in
        let* acc = acc in
        Ok (r :: acc))
      per_fpga (Ok [])
  in
  let staged = Array.of_list staged in
  let intra = Array.map (fun (p, _, _, _) -> p) staged in
  let hbm = Array.map (fun (_, h, _, _) -> h) staged in
  let pipeline = Array.map (fun (_, _, p, _) -> p) staged in
  let freq = Array.map (fun (_, _, _, f) -> f) staged in
  let unrouted = Array.exists (fun (e : Freq_model.estimate) -> not e.routed) freq in
  if unrouted then Error "a device placement exceeds physical slot capacity (routing failure)"
  else begin
    let freq_mhz = Array.fold_left (fun acc (e : Freq_model.estimate) -> Float.min acc e.freq_mhz) infinity freq in
    let l2_runtime_s = Array.fold_left (fun acc p -> acc +. Intra_fpga.runtime_s p) 0.0 intra in
    (* Static performance bounds, at the same simulator configuration
       [Flow.sim_config] would build for this compile (design clock on
       every device, bound HBM bandwidth, pipelining stage latency). *)
    let assignment = inter.Inter_fpga.assignment in
    let sim_cfg =
      let cfg =
        Design_sim.make_config ~graph ~assignment ~freq_mhz:(Array.make k freq_mhz) ~cluster
          ~synthesis ()
      in
      {
        cfg with
        Design_sim.port_bandwidth_gbps =
          port_bandwidth_gbps' ~cluster ~graph ~freq_mhz ~hbm ~assignment;
        extra_stage_cycles = extra_stage_cycles' ~pipeline;
      }
    in
    let loss_rate =
      match options.fault_plan with Some p -> p.Fault.loss_rate | None -> 0.0
    in
    let static = Static_perf.analyze ~loss_rate sim_cfg in
    (* Internal testing hook: corrupt the interval so --verify-static has
       a guaranteed violation to catch (the soundness gate uses it). *)
    let static =
      match Sys.getenv_opt "TAPA_CS_INJECT_STATIC_VIOLATION" with
      | None | Some "" | Some "0" -> static
      | Some _ ->
        {
          static with
          Static_perf.latency_lower_s = static.Static_perf.latency_upper_s +. 1.0;
          latency_upper_s = static.Static_perf.latency_upper_s +. 2.0;
        }
    in
    let* () =
      if not options.verify_static then Ok ()
      else begin
        (* Differential check: the simulated latency (loss derating
           applied, halts and stalls out of the static model) must land
           inside the closed-form interval. *)
        let faults = if loss_rate > 0.0 then Fault.make ~loss_rate () else Fault.no_faults in
        match Design_sim.run_outcome ~faults sim_cfg with
        | Design_sim.Completed r | Design_sim.Degraded { result = r; _ } -> (
          match Static_perf.interval_check static ~latency_s:r.Design_sim.latency_s with
          | None -> Ok ()
          | Some d ->
            Error (Format.asprintf "static verification failed %a" Diagnostic.pp d))
        | Design_sim.Failed { fault; _ } ->
          Error
            (Printf.sprintf "static verification failed: simulation did not complete (%s)"
               fault)
      end
    in
    Ok
      {
        graph;
        cluster;
        synthesis;
        inter;
        intra;
        hbm;
        pipeline;
        freq;
        freq_mhz;
        l1_runtime_s = inter.Inter_fpga.stats.runtime_s;
        l2_runtime_s;
        degraded;
        fallbacks;
        static;
      }
  end

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

(* Aggregated over the inter-FPGA solve and every intra-FPGA bisection
   level.  Deliberately excludes the solution-cache hit/miss counts:
   those depend on what ran earlier in the process (cold vs warm), while
   everything in [t] — including these counters — is bit-identical
   across [jobs] settings and cache states.  Cache observability lives
   in [Partition.cache_stats].  Note the counters describe the solves
   that *produced* the stored results: a cache hit replays the stored
   stats record, so the aggregate is stable by construction. *)
let solver_stats t =
  let add acc (s : Partition.stats) = Tapa_cs_ilp.Counters.add acc s.counters in
  Array.fold_left
    (fun acc p -> List.fold_left add acc p.Intra_fpga.levels)
    (add Tapa_cs_ilp.Counters.zero t.inter.Inter_fpga.stats)
    t.intra

let fpga_of t tid = t.inter.Inter_fpga.assignment.(tid)

let slot_of t tid =
  let fpga = fpga_of t tid in
  t.intra.(fpga).Intra_fpga.slot_of.(tid)

let port_bandwidth_gbps t tid port_index =
  port_bandwidth_gbps' ~cluster:t.cluster ~graph:t.graph ~freq_mhz:t.freq_mhz ~hbm:t.hbm
    ~assignment:t.inter.Inter_fpga.assignment tid port_index

let extra_stage_cycles t fid = extra_stage_cycles' ~pipeline:t.pipeline fid

let pp_summary fmt t =
  let k = Cluster.size t.cluster in
  Format.fprintf fmt "TAPA-CS design on %d FPGA(s): %.0f MHz, %d cut FIFO(s), %s inter-FPGA traffic@."
    k t.freq_mhz
    (List.length t.inter.Inter_fpga.cut_fifos)
    (Tapa_cs_util.Table.fmt_bytes t.inter.Inter_fpga.traffic_bytes);
  if t.degraded then
    Format.fprintf fmt "  status: Degraded (fallbacks: %s)@." (String.concat ", " t.fallbacks);
  Array.iteri
    (fun i u ->
      Format.fprintf fmt "  FPGA %d: %s utilization, %.0f MHz@." i
        (Tapa_cs_util.Table.fmt_pct u)
        t.freq.(i).Freq_model.freq_mhz)
    t.inter.Inter_fpga.per_fpga_util
