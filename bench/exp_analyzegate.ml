(* CI gate for the static performance verifier.

   Five properties, each checked exactly where exactness is the
   contract and counted where the contract is a saving:

   1. Soundness on real designs: for every example application the
      closed-form interval [lower, upper] must contain the simulated
      latency, and the freshly emitted artifacts must round-trip through
      the re-parser with zero diagnostics.

   2. Soundness on a random corpus: 48 seeded layered pipelines, same
      containment check.  The corpus is deterministic, so a failure is
      a bug in the bounds (or the simulator), never flakiness.

   3. Tamper sensitivity: corrupting any artifact class (floorplan Tcl,
      connectivity config, design report, stage-note arithmetic) must
      surface the matching TCS6xx diagnostic.

   4. Cross-check wiring: with TAPA_CS_INJECT_STATIC_VIOLATION set, a
      [verify_static] compile must fail with TCS503 — proving the
      differential gate is actually in the compile path, not just in a
      library nobody calls.

   5. Pruning is lossless and cheap: an SLO sweep must (a) prune at
      least one point and (b) return surviving rows byte-identical to
      the matching rows of the unpruned sweep.  The analyzer must never
      consult the simulation cache, and on one domain it must allocate
      at least 4x fewer words than a cache-warm simulation of the same
      configuration — that gap is what makes screening every sweep point
      free.  Allocation counts of these small kernels are identical
      across repeats and processes, unlike their wall-clock time. *)

open Tapa_cs
open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls
module Static_perf = Tapa_cs_analysis.Static_perf
module Diagnostic = Tapa_cs_analysis.Diagnostic
module Design_sim = Tapa_cs_sim.Design_sim
module Sim_sweep = Tapa_cs_sim.Sim_sweep
module Apps = Tapa_cs_apps
module Prng = Tapa_cs_util.Prng

let example_designs () =
  List.map
    (fun (label, fpgas, (app : Apps.App.t)) -> (label, Gate.compile ~label ~fpgas app.graph))
    [
      ("stencil x4", 4, Apps.Stencil.generate (Apps.Stencil.make_config ~iterations:8 ~fpgas:4 ()));
      ("stencil x2", 2, Apps.Stencil.generate (Apps.Stencil.make_config ~iterations:8 ~fpgas:2 ()));
      ( "pagerank x2",
        2,
        Apps.Pagerank.generate (Apps.Pagerank.make_config ~dataset:Apps.Dataset.web_google ~fpgas:2 ())
      );
      ("knn x2", 2, Apps.Knn.generate (Apps.Knn.make_config ~n_points:1_000_000 ~dims:2 ~fpgas:2 ()));
      ("cnn x2", 2, Apps.Cnn.generate (Apps.Cnn.make_config ~cols:4 ~fpgas:2 ()));
    ]

let inside (s : Static_perf.t) latency =
  latency >= s.Static_perf.latency_lower_s && latency <= s.Static_perf.latency_upper_s

(* 1. every example app: the simulated latency inside the interval,
   artifacts round-trip clean. *)
let check_examples designs =
  List.iter
    (fun (label, d) ->
      let s = Flow.static_bounds d in
      let r = Design_sim.run ~cache:false (Flow.sim_config d) in
      if not (inside s r.Design_sim.latency_s) then
        Gate.fail "%s: simulated latency %.9e outside [%.9e, %.9e]" label r.Design_sim.latency_s
          s.Static_perf.latency_lower_s s.Static_perf.latency_upper_s;
      let compiled =
        match d.Flow.compiled with
        | Some c -> c
        | None -> Gate.fail "%s: tapa_cs flow returned no compiled design" label
      in
      (match Emit.verify_roundtrip compiled with
      | [] -> ()
      | ds ->
        Gate.fail "%s: artifact round-trip not clean: %s" label
          (String.concat "; " (List.map (fun d -> d.Diagnostic.code) ds)));
      Printf.printf "  %-12s latency %.6f ms in [%.6f, %.6f] ms, artifacts clean\n" label
        (1e3 *. r.Design_sim.latency_s)
        (1e3 *. s.Static_perf.latency_lower_s)
        (1e3 *. s.Static_perf.latency_upper_s))
    designs;
  Printf.printf "  example soundness: %d designs inside interval\n" (List.length designs)

(* 2. random layered pipelines (the test suite's corpus shape, fresh
   seed range so the gate and the unit tests do not share instances). *)
let random_pipeline_config seed =
  let rng = Prng.create seed in
  let b = Taskgraph.Builder.create () in
  let stages = 2 + Prng.int rng 4 in
  let widths = [| 1; 2; 4 |] in
  let layers =
    Array.init stages (fun li ->
        Array.init (1 + Prng.int rng widths.(li mod 3)) (fun ni ->
            let elems = float_of_int (100 + Prng.int rng 1000) in
            Taskgraph.Builder.add_task b ~name:(Printf.sprintf "l%dn%d" li ni)
              ~compute:(Task.make_compute ~elems ~ii:1.0 ()) ()))
  in
  for li = 0 to stages - 2 do
    Array.iter
      (fun src ->
        let dst = layers.(li + 1).(Prng.int rng (Array.length layers.(li + 1))) in
        let elems = float_of_int (50 + Prng.int rng 500) in
        ignore (Taskgraph.Builder.add_fifo b ~src ~dst ~elems ()))
      layers.(li)
  done;
  for li = 0 to stages - 2 do
    Array.iter
      (fun dst -> ignore (Taskgraph.Builder.add_fifo b ~src:layers.(li).(0) ~dst ~elems:100.0 ()))
      layers.(li + 1)
  done;
  let g = Taskgraph.Builder.build b in
  let board = Board.u55c () in
  let cluster = Cluster.make ~board:(fun () -> board) 2 in
  let synthesis = Synthesis.run ~board g in
  let assignment = Array.init (Taskgraph.num_tasks g) (fun _ -> Prng.int rng 2) in
  Design_sim.make_config ~chunks:8 ~graph:g ~assignment ~freq_mhz:[| 300.0; 250.0 |] ~cluster
    ~synthesis ()

let corpus_size = 48

let check_corpus () =
  for seed = 20_001 to 20_000 + corpus_size do
    let cfg = random_pipeline_config seed in
    let s = Static_perf.bounds cfg in
    let r = Design_sim.run ~cache:false cfg in
    if not (inside s r.Design_sim.latency_s) then
      Gate.fail "seed %d: latency %.9e escapes [%.9e, %.9e]" seed r.Design_sim.latency_s
        s.Static_perf.latency_lower_s s.Static_perf.latency_upper_s
  done;
  Printf.printf "  corpus soundness: %d random pipelines inside interval\n" corpus_size

(* 3. each artifact class, tampered, must trip its own code. *)
let replace_first ~old_ ~new_ s =
  match Gate.find ~sub:old_ s with
  | None -> Gate.fail "tamper pattern %S not found" old_
  | Some i ->
    let ol = String.length old_ in
    String.sub s 0 i ^ new_ ^ String.sub s (i + ol) (String.length s - i - ol)

let check_tampering (c : Compiler.t) =
  let tcl f = Emit.floorplan_tcl c ~fpga:f in
  let cfg f = Emit.connectivity_cfg c ~fpga:f in
  let report = Emit.design_report_json c in
  (* Tamper the first FPGA whose artifact actually carries the pattern,
     so the gate does not depend on which device the floorplanner put a
     given task or crossing on. *)
  let tamper artifact pat new_ =
    let victim =
      if Gate.contains ~sub:pat (artifact 0) then 0
      else if Gate.contains ~sub:pat (artifact 1) then 1
      else Gate.fail "no artifact carries %S" pat
    in
    fun f -> if f = victim then replace_first ~old_:pat ~new_ (artifact f) else artifact f
  in
  List.iter
    (fun (code, what, tcl_of, cfg_of, report) ->
      let codes =
        List.map (fun d -> d.Diagnostic.code) (Emit.verify_artifacts c ~tcl_of ~cfg_of ~report)
      in
      if not (List.mem code codes) then
        Gate.fail "tampered %s did not flag %s (got: %s)" what code (String.concat "," codes))
    [
      ("TCS601", "floorplan Tcl", tamper tcl "[get_cells -hier " "[get_cells -hier ghost_", cfg, report);
      ("TCS602", "connectivity cfg", tcl, tamper cfg ":HBM[" ":HBM[3", report);
      ("TCS603", "design report", tcl, cfg, replace_first ~old_:"\"fpgas\": 2" ~new_:"\"fpgas\": 9" report);
      ("TCS604", "stage notes", tamper tcl ": 1 pipeline stage(s)" ": 7 pipeline stage(s)", cfg, report);
    ];
  Printf.printf "  tamper sensitivity: TCS601/602/603/604 each fire on its artifact class\n"

(* 4. the differential gate in the compile path. *)
let check_injection graph =
  let cluster = Cluster.make ~board:Board.u55c 2 in
  let options = { Compiler.default_options with verify_static = true } in
  (match Compiler.compile ~options ~cluster graph with
  | Ok _ -> ()
  | Error e -> Gate.fail "verify_static rejected an honest design: %s" e);
  Unix.putenv "TAPA_CS_INJECT_STATIC_VIOLATION" "1";
  let result = Compiler.compile ~options ~cluster graph in
  Unix.putenv "TAPA_CS_INJECT_STATIC_VIOLATION" "";
  (match result with
  | Ok _ -> Gate.fail "verify_static accepted an injected interval violation"
  | Error e ->
    if not (Gate.contains ~sub:"TCS503" e) then Gate.fail "injected violation failed without TCS503: %s" e);
  Printf.printf "  cross-check wiring: injected violation fails verify_static with TCS503\n"

(* 5. SLO pruning: lossless, and the analyzer cheap. *)
let check_pruning () =
  let points =
    Array.map
      (fun (label, seed) -> Sim_sweep.job ~label (random_pipeline_config seed))
      (Array.init 12 (fun i -> (Printf.sprintf "p%d" i, 30_000 + i)))
  in
  let lower (j : Sim_sweep.job) =
    (Static_perf.bounds j.Sim_sweep.config).Static_perf.latency_lower_s
  in
  let lowers = Array.map lower points in
  let lo = Array.fold_left min infinity lowers and hi = Array.fold_left max 0.0 lowers in
  (* Split the corpus: points whose lower bound already exceeds the SLO
     are prunable, the rest must simulate. *)
  let slo = (lo +. hi) /. 2.0 in
  Design_sim.reset_cache ();
  let full, t_full = Gate.timed (fun () -> Sim_sweep.run ~jobs:1 ~cache:false points) in
  Sim_sweep.reset_static_pruned ();
  Design_sim.reset_cache ();
  let slo_rows, t_slo =
    Gate.timed (fun () ->
        Sim_sweep.run_slo ~jobs:1 ~cache:false ~slo_latency_s:slo ~lower_bound_s:lower points)
  in
  let pruned = Sim_sweep.static_pruned () in
  if pruned = 0 then Gate.fail "SLO sweep pruned nothing (slo %.9e over lowers [%.9e, %.9e])" slo lo hi;
  if pruned = Array.length points then Gate.fail "SLO sweep pruned everything";
  Array.iteri
    (fun i (label, row) ->
      let label', outcome = full.(i) in
      if label <> label' then Gate.fail "row order diverged at %d" i;
      match row with
      | Sim_sweep.Simulated o ->
        if o <> outcome then Gate.fail "surviving row %s differs from unpruned sweep" label
      | Sim_sweep.Pruned { lower_bound_s } ->
        if lower_bound_s <= slo then Gate.fail "row %s pruned below the SLO" label;
        (match outcome with
        | Design_sim.Completed res ->
          if res.Design_sim.latency_s < lower_bound_s then
            Gate.fail "row %s pruned but simulates faster than its lower bound" label
        | _ -> Gate.fail "pruned row %s did not complete unpruned" label))
    slo_rows;
  Printf.printf
    "  pruning losslessness: %d/%d points pruned, survivors byte-identical (%.1f ms vs %.1f ms)\n"
    pruned (Array.length points) (1e3 *. t_slo) (1e3 *. t_full);
  (* Screening must be far cheaper than even a cache-warm rerun: the
     analyzer never touches the simulation cache, and allocates at
     least 4x fewer words than the warm lookup. *)
  let cfg = random_pipeline_config 30_000 in
  ignore (Design_sim.run cfg);
  let words f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let before = Design_sim.cache_stats () in
  let w_bounds = words (fun () -> Static_perf.bounds cfg) in
  if Design_sim.cache_stats () <> before then Gate.fail "static bounds touched the simulation cache";
  let w_warm = words (fun () -> Design_sim.run cfg) in
  if 4.0 *. w_bounds > w_warm then
    Gate.fail "static bounds not cheap enough: %.0f words vs %.0f for a cache-warm sim" w_bounds
      w_warm;
  Printf.printf "  analyzer cost: %.0f words/bounds vs %.0f cache-warm sim (%.1fx fewer)\n"
    w_bounds w_warm (w_warm /. w_bounds)

let run () =
  Exp_common.section "Static performance verifier gate";
  let designs = example_designs () in
  check_examples designs;
  check_corpus ();
  (match (List.assoc "stencil x2" designs).Flow.compiled with
  | Some c ->
    check_tampering c;
    check_injection c.Compiler.graph
  | None -> Gate.fail "stencil x2 has no compiled design");
  check_pruning ();
  Printf.printf "  static verifier gate passed\n"
