(* compile_cold: one operation is a cold TAPA-CS compile of a suite
   design followed by a simulation of the result, with the floorplan and
   simulation caches reset first.  The seed only sets the order of each
   pass over the suite, so every figure is comparable across seeds.

   The traced run alternates untraced passes with passes through
   [mirror], which calls the compile steps one by one in
   [Compiler.compile]'s order and times each call. *)

open Tapa_cs
open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls
open Tapa_cs_floorplan
open Tapa_cs_pipeline
open Tapa_cs_freq
open Tapa_cs_apps
module Design_sim = Tapa_cs_sim.Design_sim
module Static_perf = Tapa_cs_analysis.Static_perf
module Lint = Tapa_cs_analysis.Lint
module Prng = Tapa_cs_util.Prng
module Pool = Tapa_cs_util.Pool

type design = { name : string; graph : Taskgraph.t; cluster : Cluster.t }

let u55c n = Cluster.make ~board:Board.u55c n

(* The nine designs: both ILP regimes (small exact solves up to the
   ~0.7 s pagerank x8 inter-FPGA solve) and the one multi-node design,
   sized for 12 of 16 boards so it takes the grouped hierarchical path. *)
let suite () =
  let app g = g.App.graph in
  [
    { name = "stencil-64x2"; graph = app (Stencil.generate (Stencil.make_config ~iterations:64 ~fpgas:2 ())); cluster = u55c 2 };
    { name = "stencil-256x4"; graph = app (Stencil.generate (Stencil.make_config ~iterations:256 ~fpgas:4 ())); cluster = u55c 4 };
    { name = "cnn-12x2"; graph = app (Cnn.generate (Cnn.make_config ~cols:12 ~fpgas:2 ())); cluster = u55c 2 };
    { name = "cnn-20x4"; graph = app (Cnn.generate (Cnn.make_config ~cols:20 ~fpgas:4 ())); cluster = u55c 4 };
    { name = "knn-4M-d8x4"; graph = app (Knn.generate (Knn.make_config ~n_points:4_000_000 ~dims:8 ~fpgas:4 ())); cluster = u55c 4 };
    { name = "knn-1M-d32x2"; graph = app (Knn.generate (Knn.make_config ~n_points:1_000_000 ~dims:32 ~fpgas:2 ())); cluster = u55c 2 };
    { name = "pagerank-google-x4"; graph = app (Pagerank.generate (Pagerank.make_config ~dataset:Dataset.web_google ~fpgas:4 ())); cluster = u55c 4 };
    { name = "pagerank-google-x8"; graph = app (Pagerank.generate (Pagerank.make_config ~dataset:Dataset.web_google ~fpgas:8 ())); cluster = u55c 8 };
    {
      name = "stencil-8x12of16";
      graph = app (Stencil.generate (Stencil.make_config ~iterations:8 ~fpgas:12 ()));
      cluster = Cluster.heterogeneous ~boards_per_node:4 [ Board.u55c ] 16;
    };
  ]

let design_names = List.map (fun d -> d.name) (suite ())

let options ctx = { Compiler.default_options with Compiler.jobs = Bench.domains ctx }

let reset_caches () =
  Partition.reset_cache ();
  Design_sim.reset_cache ()

(* What an operation produced, compared across passes and against the
   traced mirror. *)
type outcome = {
  compiled : Compiler.t;
  compile_s : float;
  simulate_s : float;
  latency_s : float;
  events : int;
  frag_misses : int;
}

(* One cold operation.  The output checks run after the clock stops:
   the emitted artifacts must parse back to the compiled design, and
   the simulated latency must fall inside the static interval. *)
let run_op ctx d =
  Bench.attempt ctx;
  reset_caches ();
  let compiled, compile_s =
    Bench.timed (fun () -> Flow.tapa_cs ~options:(options ctx) ~pool:ctx.Bench.pool ~cluster:d.cluster d.graph)
  in
  match compiled with
  | Error e ->
    Bench.fail ctx "%s: compile failed: %s" d.name e;
    None
  | Ok des -> (
    let frag_misses = (Partition.fragment_stats ()).Partition.frag_misses in
    match Bench.timed (fun () -> Design_sim.run ~cache:false (Flow.sim_config des)) with
    | exception e ->
      Bench.fail ctx "%s: simulation raised %s" d.name (Printexc.to_string e);
      None
    | sim, simulate_s -> (
      let c = Option.get des.Flow.compiled in
      let latency_s = sim.Design_sim.latency_s in
      match (Emit.verify_roundtrip c, Static_perf.interval_check c.Compiler.static ~latency_s) with
      | [], None -> Some { compiled = c; compile_s; simulate_s; latency_s; events = sim.Design_sim.events; frag_misses }
      | _ :: _, _ ->
        Bench.fail ctx "%s: emitted artifacts do not verify" d.name;
        None
      | [], Some _ ->
        Bench.fail ctx "%s: simulated latency outside the static interval" d.name;
        None))

(* ------------------------------------------------------------------ *)
(* The traced mirror of Compiler.compile                               *)
(* ------------------------------------------------------------------ *)

let step_names =
  [ "synthesis"; "lint"; "inter_fpga"; "intra_fpga"; "hbm_binding"; "pipelining"; "freq_model"; "static_perf" ]

type mirrored = {
  assignment : int array;
  freq_mhz : float;
  static : Static_perf.t;
  steps : (string * float) list;  (** busy seconds per step; per-FPGA steps summed *)
  wall_s : float;
  covered_s : float;  (** wall time inside some span *)
}

let ( let* ) = Result.bind

(* Port bandwidth after HBM binding, capped by the port's wire rate: the
   same rule [Compiler] applies when it builds the simulator config. *)
let port_bandwidth ~cluster ~graph ~freq_mhz ~hbm ~assignment tid port_index =
  let fpga = assignment.(tid) in
  let bound =
    Hbm_binding.effective_port_bandwidth_gbps (Cluster.board cluster fpga) hbm.(fpga) ~task_id:tid ~port_index
  in
  match List.nth_opt (Taskgraph.task graph tid).Task.mem_ports port_index with
  | None -> 0.0
  | Some p -> Float.min bound (float_of_int p.Task.width_bits /. 8.0 *. freq_mhz *. 1e6 /. 1e9)

let mirror ctx d =
  let o = options ctx and pool = ctx.Bench.pool and cluster = d.cluster and graph = d.graph in
  let steps = Hashtbl.create 8 in
  let add name dt = Hashtbl.replace steps name (dt +. Option.value ~default:0.0 (Hashtbl.find_opt steps name)) in
  let covered = ref 0.0 in
  let span name f =
    let r, dt = Bench.timed f in
    add name dt;
    covered := !covered +. dt;
    r
  in
  let t0 = Bench.now () in
  let synthesis = span "synthesis" (fun () -> Synthesis.run ~board:(Cluster.board cluster 0) ~pool graph) in
  let* () =
    match span "lint" (fun () -> Lint.precheck ~threshold:o.Compiler.threshold ~cluster ~synthesis graph) with
    | [] -> Ok ()
    | errors -> Error (Tapa_cs_analysis.Diagnostic.render errors)
  in
  let rec inter_fpga n seed =
    match
      span "inter_fpga" (fun () ->
          Inter_fpga.run ~strategy:o.Compiler.strategy ~threshold:o.Compiler.threshold ~seed ~pool ~cluster ~synthesis graph)
    with
    | Ok inter -> Ok inter
    | Error Inter_fpga.Solver_timeout when n < 2 -> inter_fpga (n + 1) (seed + 1_000_003)
    | Error e -> Error (Inter_fpga.error_message e)
  in
  let* inter = inter_fpga 0 o.Compiler.seed in
  let threshold = Float.max o.Compiler.threshold inter.Inter_fpga.threshold_used in
  let cut_width = Array.make (Taskgraph.num_tasks graph) 0.0 in
  List.iter
    (fun (f : Fifo.t) ->
      cut_width.(f.src) <- cut_width.(f.src) +. float_of_int f.width_bits;
      cut_width.(f.dst) <- cut_width.(f.dst) +. float_of_int f.width_bits)
    inter.Inter_fpga.cut_fifos;
  let k = Cluster.size cluster in
  (* The per-FPGA tail runs on the pool as in the compiler; each worker
     times its own steps, and the section's wall time counts as covered. *)
  let tail, tail_s =
    Bench.timed (fun () ->
        Pool.parallel_map ~pool
          (fun fpga ->
            let board = Cluster.board cluster fpga in
            let tasks = List.filter (fun t -> inter.Inter_fpga.assignment.(t) = fpga) (List.init (Taskgraph.num_tasks graph) Fun.id) in
            let placement, intra_s =
              Bench.timed (fun () ->
                  Intra_fpga.run ~strategy:o.Compiler.strategy ~threshold ~seed:o.Compiler.seed ~board ~synthesis ~graph ~tasks
                    ~io_pull:(fun t -> cut_width.(t))
                    ())
            in
            match placement with
            | Error e -> Error e
            | Ok placement ->
              let slot_of = placement.Intra_fpga.slot_of in
              let hbm, hbm_s = Bench.timed (fun () -> Hbm_binding.run ~explore:o.Compiler.explore_hbm ~board ~graph ~slot_of ()) in
              let crossings = if o.Compiler.pipeline_interconnect then placement.Intra_fpga.crossings else [] in
              let pipeline, pipe_s = Bench.timed (fun () -> Pipelining.run ~graph ~crossings) in
              let freq, freq_s =
                Bench.timed (fun () ->
                    Freq_model.of_placement ~board ~synthesis ~graph ~slot_of ~pipelined:o.Compiler.pipeline_interconnect ())
              in
              Ok (placement, hbm, pipeline, freq, [ ("intra_fpga", intra_s); ("hbm_binding", hbm_s); ("pipelining", pipe_s); ("freq_model", freq_s) ]))
          (Array.init k Fun.id))
  in
  covered := !covered +. tail_s;
  let* tail = Array.fold_right (fun r acc -> let* r = r in let* acc = acc in Ok (r :: acc)) tail (Ok []) in
  let tail = Array.of_list tail in
  Array.iter (fun (_, _, _, _, times) -> List.iter (fun (n, dt) -> add n dt) times) tail;
  let freqs = Array.map (fun (_, _, _, f, _) -> f) tail in
  if Array.exists (fun (e : Freq_model.estimate) -> not e.routed) freqs then Error "routing failure"
  else begin
    let freq_mhz = Array.fold_left (fun acc (e : Freq_model.estimate) -> Float.min acc e.freq_mhz) infinity freqs in
    let assignment = inter.Inter_fpga.assignment in
    let static =
      span "static_perf" (fun () ->
          let hbm = Array.map (fun (_, h, _, _, _) -> h) tail in
          let pipeline = Array.map (fun (_, _, p, _, _) -> p) tail in
          let cfg = Design_sim.make_config ~graph ~assignment ~freq_mhz:(Array.make k freq_mhz) ~cluster ~synthesis () in
          Static_perf.analyze ~loss_rate:0.0
            {
              cfg with
              Design_sim.port_bandwidth_gbps = port_bandwidth ~cluster ~graph ~freq_mhz ~hbm ~assignment;
              extra_stage_cycles = (fun fid -> Array.fold_left (fun acc p -> acc + Pipelining.stages_of p fid) 0 pipeline);
            })
    in
    let wall_s = Bench.now () -. t0 in
    Ok
      {
        assignment;
        freq_mhz;
        static;
        steps = List.map (fun n -> (n, Option.value ~default:0.0 (Hashtbl.find_opt steps n))) step_names;
        wall_s;
        covered_s = !covered;
      }
  end

(* The mirror must produce what the compiler produced; otherwise its
   per-step times describe some other computation. *)
let mirror_matches (c : Compiler.t) m =
  c.Compiler.inter.Inter_fpga.assignment = m.assignment
  && c.Compiler.freq_mhz = m.freq_mhz
  && c.Compiler.static.Static_perf.latency_lower_s = m.static.Static_perf.latency_lower_s
  && c.Compiler.static.Static_perf.latency_upper_s = m.static.Static_perf.latency_upper_s

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

type per_design = {
  d : design;
  mutable ops : (float * float) list;  (** (compile s, simulate s), newest first *)
  mutable qor : (float * float) option;  (** (freq MHz, simulated latency s) *)
}

(* Record an operation and check it reproduces the design's earlier
   results: a cold compile is deterministic. *)
let record ctx pd o =
  (match pd.qor with
  | None -> pd.qor <- Some (o.compiled.Compiler.freq_mhz, o.latency_s)
  | Some q ->
    if q <> (o.compiled.Compiler.freq_mhz, o.latency_s) then
      Bench.fail ctx "%s: cold compile did not reproduce its earlier result" pd.d.name);
  pd.ops <- (o.compile_s, o.simulate_s) :: pd.ops

(* The seed sets the order of every pass. *)
let pass_orders ctx designs =
  let prng = Prng.create ctx.Bench.seed in
  fun () ->
    let a = Array.of_list designs in
    Prng.shuffle prng a;
    Array.to_list a

let setup ctx =
  Bench.setup ~reps:9 (fun () ->
      let designs = List.map (fun d -> { d; ops = []; qor = None }) (suite ()) in
      (* Warm-up: one cold compile of the smallest design pages in the
         code and grows the heap before the clock starts. *)
      reset_caches ();
      (match Flow.tapa_cs ~options:(options ctx) ~pool:ctx.Bench.pool ~cluster:(List.hd designs).d.cluster (List.hd designs).d.graph with
      | Ok _ -> ()
      | Error e -> Bench.fail ctx "warm-up compile failed: %s" e);
      designs)

let ms s = s *. 1e3

let run ctx =
  let designs, setup_s = setup ctx in
  let next_order = pass_orders ctx designs in
  let deadline = Bench.now () +. ctx.Bench.seconds in
  if not ctx.Bench.trace then begin
    let pass_s = ref [] in
    while Bench.now () < deadline || !pass_s = [] do
      let total =
        List.fold_left
          (fun acc pd ->
            match run_op ctx pd.d with
            | Some o ->
              record ctx pd o;
              acc +. o.compile_s +. o.simulate_s
            | None -> acc)
          0.0 (next_order ())
      in
      pass_s := total :: !pass_s
    done;
    (* A design that failed in every pass has no samples: the figures
       cover the others, and the failures are already counted.  With
       nothing to cover they read 0. *)
    let per_design f = List.filter_map (fun pd -> if pd.ops = [] then None else Some (f pd)) designs in
    let geomean = function [] -> 0.0 | xs -> Stats.geomean xs in
    let median_of sel pd = Stats.median (Array.of_list (List.map sel pd.ops)) in
    let all_ops = Array.of_list (List.concat_map (fun pd -> List.map (fun (c, s) -> ms (c +. s)) pd.ops) designs) in
    let suite_s = Stats.median (Array.of_list !pass_s) in
    let qor f = geomean (per_design (fun pd -> f (Option.get pd.qor))) in
    let quality =
      geomean (per_design (fun pd -> fst (Option.get pd.qor) /. (Cluster.board pd.d.cluster 0).Board.max_freq_mhz))
    in
    Bench.report "passes" (float_of_int (List.length !pass_s)) "count";
    Bench.report "compile_geomean_ms" (ms (geomean (per_design (median_of fst)))) "ms";
    Bench.report "suite_s" suite_s "s";
    Bench.report "simulate_geomean_ms" (ms (geomean (per_design (median_of snd)))) "ms";
    Bench.report "design_latency_geomean_ms" (ms (qor snd)) "ms";
    Bench.report "design_freq_geomean_mhz" (qor fst) "MHz";
    [
      ("op_ms", geomean (per_design (median_of (fun (c, s) -> ms (c +. s)))));
      (* The mean of the slowest quarter: the designs' times form
         clusters far apart, and the p75 sat at a gap between two of
         them, where its ratio to [op_ms] ranged 1.9-2.5 over ten runs. *)
      ("tail_ms", if all_ops = [||] then 0.0 else Stats.tail_mean 75.0 all_ops);
      ("ops_per_s", if suite_s > 0.0 then float_of_int (List.length designs) /. suite_s else 0.0);
      ("quality", quality);
      ("setup_s", setup_s);
    ]
  end
  else begin
    (* Traced run: untraced and traced passes alternate in one seeded
       order, so the tracing overhead is their difference. *)
    let layer = Hashtbl.create 32 in
    let push name v = Hashtbl.replace layer name (v :: Option.value ~default:[] (Hashtbl.find_opt layer name)) in
    let checked = Hashtbl.create 16 in
    while Bench.now () < deadline || Hashtbl.length layer = 0 do
      let order = next_order () in
      let sums = Hashtbl.create 32 in
      let add name v = Hashtbl.replace sums name (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums name)) in
      List.iter
        (fun pd ->
          match run_op ctx pd.d with
          | None -> ()
          | Some o -> (
            record ctx pd o;
            let s = Compiler.solver_stats o.compiled in
            add "untraced_ms" (ms o.compile_s);
            add "design_sim.ms" (ms o.simulate_s);
            add "design_sim.events" (float_of_int o.events);
            add "ilp.lp_solves" (float_of_int s.Compiler.lp_solves);
            add "ilp.lp_pivots" (float_of_int s.Compiler.lp_pivots);
            add "ilp.bb_nodes" (float_of_int s.Compiler.bb_nodes);
            add "ilp.lp_fallbacks" (float_of_int s.Compiler.lp_fallbacks);
            add "ilp.lp_certified" (float_of_int s.Compiler.lp_certified);
            add "ilp.subproblems" (float_of_int s.Compiler.subproblems);
            add "ilp.races_anneal" (float_of_int s.Compiler.races_anneal);
            add "partition.frag_misses" (float_of_int o.frag_misses);
            add "emit.verify_ms" (ms (snd (Bench.timed (fun () -> Emit.verify_roundtrip o.compiled))));
            Bench.attempt ctx;
            reset_caches ();
            match mirror ctx pd.d with
            | Error e -> Bench.fail ctx "%s: traced compile failed: %s" pd.d.name e
            | Ok m ->
              if not (mirror_matches o.compiled m) then
                Bench.fail ctx "%s: traced compile differs from Compiler.compile" pd.d.name;
              Hashtbl.replace checked pd.d.name ();
              List.iter (fun (n, dt) -> add (n ^ ".ms") (ms dt)) m.steps;
              add "traced_ms" (ms m.wall_s);
              add "trace.uncovered_ms" (ms (m.wall_s -. m.covered_s));
              push ("compile_ms." ^ pd.d.name) (ms o.compile_s)))
        order;
      Hashtbl.iter push sums
    done;
    if Hashtbl.length checked <> List.length designs then
      Bench.fail ctx "traced run compared only %d of %d designs" (Hashtbl.length checked) (List.length designs);
    (* A name with no samples (every operation behind it failed, which is
       already counted) reads 0, like a layer that was never called. *)
    let med name = match Hashtbl.find_opt layer name with Some l -> Stats.median (Array.of_list l) | None -> 0.0 in
    let steps_total = List.fold_left (fun acc n -> acc +. med (n ^ ".ms")) 0.0 step_names in
    let share n = if steps_total > 0.0 then med n /. steps_total else 0.0 in
    List.map (fun n -> (n ^ ".ms", med (n ^ ".ms"))) step_names
    @ [
        ("inter_fpga.share", share "inter_fpga.ms");
        ("intra_fpga.share", share "intra_fpga.ms");
        ("design_sim.ms", med "design_sim.ms");
        ("design_sim.events", med "design_sim.events");
        ("ilp.lp_solves", med "ilp.lp_solves");
        ("ilp.lp_pivots", med "ilp.lp_pivots");
        ("ilp.bb_nodes", med "ilp.bb_nodes");
        ("ilp.lp_fallbacks", med "ilp.lp_fallbacks");
        ("ilp.lp_certified_frac", med "ilp.lp_certified" /. Float.max 1.0 (med "ilp.lp_solves"));
        ("ilp.subproblems", med "ilp.subproblems");
        ("ilp.races_anneal", med "ilp.races_anneal");
        ("partition.frag_misses", med "partition.frag_misses");
        ("emit.verify_ms", med "emit.verify_ms");
        ("trace.uncovered_ms", med "trace.uncovered_ms");
        ("trace.overhead_ms", med "traced_ms" -. med "untraced_ms");
      ]
    @ List.map (fun n -> ("compile_ms." ^ n, med ("compile_ms." ^ n))) design_names
  end
