(* Integration tests: the full seven-step compiler and the three flows on
   small-but-real designs, with golden-shape checks against the paper's
   qualitative results. *)

open Tapa_cs
open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_floorplan
open Tapa_cs_apps

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Small configurations keep the ILP instances tiny so this suite stays
   fast; the full-scale paper configurations run in bench/main.exe. *)
let fast_options = { Compiler.default_options with strategy = Partition.Heuristic }

let small_chain ~tasks ~lut =
  let b = Taskgraph.Builder.create () in
  let ids =
    List.init tasks (fun i ->
        Taskgraph.Builder.add_task b ~name:(Printf.sprintf "s%d" i)
          ~compute:(Task.make_compute ~elems:1e5 ~ii:1.0 ())
          ~resources:(Resource.make ~lut ~ff:lut ()) ())
  in
  let rec link = function
    | a :: (c :: _ as rest) ->
      ignore (Taskgraph.Builder.add_fifo b ~src:a ~dst:c ~width_bits:64 ~elems:1e5 ());
      link rest
    | _ -> ()
  in
  link ids;
  Taskgraph.Builder.build b

let test_compile_seven_steps () =
  let g = small_chain ~tasks:6 ~lut:50_000 in
  let cluster = Cluster.make ~board:Board.u55c 2 in
  match Compiler.compile ~options:fast_options ~cluster g with
  | Error e -> Alcotest.failf "compile failed: %s" e
  | Ok c ->
    check int "one placement per FPGA" 2 (Array.length c.Compiler.intra);
    check int "one binding per FPGA" 2 (Array.length c.Compiler.hbm);
    check int "one pipeline report per FPGA" 2 (Array.length c.Compiler.pipeline);
    check bool "clock positive" true (c.Compiler.freq_mhz > 0.0);
    check bool "clock below board max" true (c.Compiler.freq_mhz <= 300.0);
    check bool "L1 timer ran" true (c.Compiler.l1_runtime_s >= 0.0);
    (* every task has an FPGA and a slot *)
    for tid = 0 to Taskgraph.num_tasks g - 1 do
      let fpga = Compiler.fpga_of c tid in
      check bool "fpga in range" true (fpga >= 0 && fpga < 2);
      check bool "slot assigned" true (Compiler.slot_of c tid <> None)
    done

let test_jobs_determinism () =
  (* The acceptance contract of the parallel pipeline: [jobs] may only
     change wall-clock, never the design.  Compare every deterministic
     output field between the sequential path and a 4-domain pool on the
     three example apps.  (The [l1_runtime_s]/[l2_runtime_s] timers are
     wall-clock measurements and so are the one legitimately
     nondeterministic part of the result.) *)
  let apps =
    [
      ("stencil", (Stencil.generate (Stencil.make_config ~iterations:8 ~fpgas:2 ())).App.graph);
      ( "pagerank",
        (Pagerank.generate (Pagerank.make_config ~dataset:Dataset.web_notredame ~fpgas:2 ()))
          .App.graph );
      ("knn", (Knn.generate (Knn.make_config ~n_points:100_000 ~dims:4 ~fpgas:2 ())).App.graph);
    ]
  in
  let cluster = Cluster.make ~board:Board.u55c 2 in
  List.iter
    (fun (name, g) ->
      let run jobs =
        match Compiler.compile ~options:{ fast_options with jobs } ~cluster g with
        | Ok c -> c
        | Error e -> Alcotest.failf "%s (jobs=%d): %s" name jobs e
      in
      let seq = run 1 and par = run 4 in
      check bool (name ^ ": synthesis profiles") true
        (seq.Compiler.synthesis.Tapa_cs_hls.Synthesis.profiles
        = par.Compiler.synthesis.Tapa_cs_hls.Synthesis.profiles);
      check int (name ^ ": cache hits") seq.Compiler.synthesis.Tapa_cs_hls.Synthesis.cache_hits
        par.Compiler.synthesis.Tapa_cs_hls.Synthesis.cache_hits;
      check bool (name ^ ": inter assignment") true
        (seq.Compiler.inter.Inter_fpga.assignment = par.Compiler.inter.Inter_fpga.assignment);
      check bool (name ^ ": slot maps") true
        (Array.for_all2
           (fun (a : Intra_fpga.t) (b : Intra_fpga.t) -> a.Intra_fpga.slot_of = b.Intra_fpga.slot_of)
           seq.Compiler.intra par.Compiler.intra);
      check bool (name ^ ": freq estimates") true (seq.Compiler.freq = par.Compiler.freq);
      check (Alcotest.float 0.0) (name ^ ": design clock") seq.Compiler.freq_mhz
        par.Compiler.freq_mhz;
      for tid = 0 to Taskgraph.num_tasks g - 1 do
        check bool (name ^ ": hbm port bandwidth") true
          (Compiler.port_bandwidth_gbps seq tid 0 = Compiler.port_bandwidth_gbps par tid 0)
      done)
    apps

let test_external_pool_equivalence () =
  (* A caller-owned domain pool (sweeps, the farm controller) must
     produce the same design as the compiler's own per-call pool, and
     must survive the compile: Compiler.compile never shuts down a pool
     it did not create. *)
  let g = (Stencil.generate (Stencil.make_config ~iterations:8 ~fpgas:2 ())).App.graph in
  let cluster = Cluster.make ~board:Board.u55c 2 in
  let pool = Tapa_cs_util.Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Tapa_cs_util.Pool.shutdown pool) @@ fun () ->
  let run ?pool () =
    match Compiler.compile ~options:fast_options ?pool ~cluster g with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" e
  in
  let own = run () in
  let shared = run ~pool () in
  check bool "shared pool: same assignment" true
    (own.Compiler.inter.Inter_fpga.assignment = shared.Compiler.inter.Inter_fpga.assignment);
  check (Alcotest.float 0.0) "shared pool: same clock" own.Compiler.freq_mhz
    shared.Compiler.freq_mhz;
  (* The pool is still usable after both compiles. *)
  let again = run ~pool () in
  check bool "pool survives repeated compiles" true
    (again.Compiler.inter.Inter_fpga.assignment = own.Compiler.inter.Inter_fpga.assignment)

let test_cache_cold_warm_identity () =
  (* The floorplan solution cache's contract: a warm compile replays the
     stored solver records verbatim, so every output field but the
     wall-clock floorplanner timers — the solver counters included — is
     bit-identical to the cold compile.  Only the process-wide hit/miss
     counters may differ, and they live outside the compile result. *)
  let g = (Stencil.generate (Stencil.make_config ~iterations:8 ~fpgas:2 ())).App.graph in
  let cluster = Cluster.make ~board:Board.u55c 2 in
  let run () =
    match Compiler.compile ~options:fast_options ~cluster g with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" e
  in
  Tapa_cs_floorplan.Partition.reset_cache ();
  let cold = run () in
  let _, misses_after_cold = Tapa_cs_floorplan.Partition.cache_stats () in
  check bool "cold compile populated the cache" true (misses_after_cold > 0);
  let warm = run () in
  let hits_after_warm, _ = Tapa_cs_floorplan.Partition.cache_stats () in
  check bool "warm compile hit the cache" true (hits_after_warm > 0);
  check bool "inter assignment identical" true
    (cold.Compiler.inter.Inter_fpga.assignment = warm.Compiler.inter.Inter_fpga.assignment);
  check bool "inter stats replayed verbatim" true
    (cold.Compiler.inter.Inter_fpga.stats = warm.Compiler.inter.Inter_fpga.stats);
  check bool "slot maps identical" true
    (Array.for_all2
       (fun (a : Intra_fpga.t) (b : Intra_fpga.t) -> a.Intra_fpga.slot_of = b.Intra_fpga.slot_of)
       cold.Compiler.intra warm.Compiler.intra);
  check bool "freq estimates identical" true (cold.Compiler.freq = warm.Compiler.freq);
  check bool "solver counters identical" true
    (Compiler.solver_stats cold = Compiler.solver_stats warm);
  (* A single-node cluster takes the flat paths, so the hierarchical /
     portfolio counters must replay as exact zeroes — any nonzero here
     means a flat solve leaked into the decomposition machinery. *)
  let s = Compiler.solver_stats cold in
  check Alcotest.int "flat path: no hierarchical subproblems" 0 s.Compiler.subproblems;
  check Alcotest.int "flat path: no portfolio races" 0
    (s.Compiler.races_exact + s.Compiler.races_anneal)

let test_floorplan_runtimes_within_wall () =
  (* The §5.6 runtime columns time this compile's own floorplanner
     calls.  Cold caches, one domain: a bisection level the solution
     cache answers costs its lookup, not the solve that stored it, so
     L1 + L2 fits inside the wall time of the whole compile. *)
  let g = (Stencil.generate (Stencil.make_config ~iterations:256 ~fpgas:4 ())).App.graph in
  let cluster = Cluster.make ~board:Board.u55c 4 in
  Partition.reset_cache ();
  let t0 = Unix.gettimeofday () in
  match Compiler.compile ~options:{ Compiler.default_options with jobs = 1 } ~cluster g with
  | Error e -> Alcotest.failf "compile: %s" e
  | Ok c ->
    let wall = Unix.gettimeofday () -. t0 in
    let l1 = c.Compiler.l1_runtime_s and l2 = c.Compiler.l2_runtime_s in
    if l1 +. l2 > wall then
      Alcotest.failf "L1 %.4fs + L2 %.4fs exceeds the compile's wall time %.4fs" l1 l2 wall

let test_flows_on_small_design () =
  let g = small_chain ~tasks:4 ~lut:20_000 in
  (match Flow.vitis g with
  | Ok d ->
    check bool "vitis label" true (d.Flow.label = "F1-V");
    check bool "vitis runs" true (Flow.latency_s d > 0.0)
  | Error e -> Alcotest.failf "vitis: %s" e);
  (match Flow.tapa ~options:fast_options g with
  | Ok d ->
    check bool "tapa label" true (d.Flow.label = "F1-T");
    check bool "compiled attached" true (d.Flow.compiled <> None)
  | Error e -> Alcotest.failf "tapa: %s" e);
  let cluster = Cluster.make ~board:Board.u55c 2 in
  match Flow.tapa_cs ~options:fast_options ~cluster g with
  | Ok d ->
    check bool "F2 label" true (d.Flow.label = "F2");
    check bool "simulates" true (Flow.latency_s d > 0.0)
  | Error e -> Alcotest.failf "tapa_cs: %s" e

let test_tapa_frequency_beats_vitis () =
  (* The floorplanned flow must never clock lower than the naive one on a
     congested memory-heavy design — the core §5 frequency claim. *)
  let b = Taskgraph.Builder.create () in
  let ids =
    List.init 8 (fun i ->
        Taskgraph.Builder.add_task b ~name:(Printf.sprintf "m%d" i)
          ~compute:(Task.make_compute ~elems:1e5 ~ii:1.0 ())
          ~mem_ports:[ Task.mem_port ~dir:Task.Read ~width_bits:512 ~bytes:1e8 () ]
          ~resources:(Resource.make ~lut:90_000 ~ff:110_000 ~bram:120 ()) ())
  in
  let rec link = function
    | a :: (c :: _ as rest) ->
      ignore (Taskgraph.Builder.add_fifo b ~src:a ~dst:c ~width_bits:512 ~elems:1e5 ());
      link rest
    | _ -> ()
  in
  link ids;
  let g = Taskgraph.Builder.build b in
  match (Flow.vitis g, Flow.tapa ~options:fast_options g) with
  | Ok v, Ok t -> check bool "F1-T >= F1-V frequency" true (t.Flow.freq_mhz >= v.Flow.freq_mhz)
  | Error e, _ -> Alcotest.failf "vitis: %s" e
  | _, Error e -> Alcotest.failf "tapa: %s" e

let test_oversized_design_needs_multi_fpga () =
  (* Each task fits a slot (< 191k LUT) but the whole design exceeds one
     U55C's budget — exactly the §5.5 CNN situation. *)
  let g = small_chain ~tasks:8 ~lut:150_000 in
  check bool "single-FPGA flows fail" true (Result.is_error (Flow.tapa ~options:fast_options g));
  let cluster = Cluster.make ~board:Board.u55c 4 in
  check bool "TAPA-CS routes it" true (Result.is_ok (Flow.tapa_cs ~options:fast_options ~cluster g))

let test_multi_fpga_speedup_on_parallel_design () =
  (* Independent branches (KNN-like) must speed up with more devices. *)
  let app1 = Knn.generate (Knn.make_config ~n_points:1_000_000 ~dims:8 ~fpgas:1 ()) in
  let app2 = Knn.generate (Knn.make_config ~n_points:1_000_000 ~dims:8 ~fpgas:2 ()) in
  match
    ( Flow.tapa ~options:fast_options app1.App.graph,
      Flow.tapa_cs ~options:fast_options ~cluster:(Cluster.make ~board:Board.u55c 2) app2.App.graph )
  with
  | Ok single, Ok dual ->
    let l1 = Flow.latency_s single and l2 = Flow.latency_s dual in
    check bool "2 FPGAs faster" true (l2 < l1)
  | Error e, _ -> Alcotest.failf "single: %s" e
  | _, Error e -> Alcotest.failf "dual: %s" e

let test_pagerank_superlinear_shape () =
  (* §5.3's shape: constant transfer volume + parallel launch means the
     per-FPGA latency keeps dropping through F4. *)
  let lat k =
    let app = Pagerank.generate (Pagerank.make_config ~dataset:Dataset.web_notredame ~fpgas:k ()) in
    if k = 1 then
      match Flow.tapa ~options:fast_options app.App.graph with
      | Ok d -> Flow.latency_s d
      | Error e -> Alcotest.failf "F1: %s" e
    else begin
      match
        Flow.tapa_cs ~options:fast_options ~cluster:(Cluster.make ~board:Board.u55c k) app.App.graph
      with
      | Ok d -> Flow.latency_s d
      | Error e -> Alcotest.failf "F%d: %s" k e
    end
  in
  let l1 = lat 1 and l2 = lat 2 and l4 = lat 4 in
  check bool "F2 < F1" true (l2 < l1);
  check bool "F4 < F2" true (l4 < l2)

let test_stencil_8fpga_internode_slowdown () =
  (* §5.7: the 512-iteration stencil over two nodes is slower than one
     FPGA because of host-staged transfers and sequential execution. *)
  let single = Stencil.generate (Stencil.make_config ~iterations:512 ~fpgas:1 ()) in
  let eight =
    Stencil.generate
      (Stencil.make_config ~iterations:512 ~fpgas:8 ~inter_node_at:(Some 4) ())
  in
  match
    ( Flow.vitis single.App.graph,
      (* Auto strategy: the hierarchical bisection is what routes the bulk
         handoff through the host link, as the real tool's ILP would. *)
      Flow.tapa_cs ~cluster:(Cluster.two_node_testbed ()) eight.App.graph )
  with
  | Ok f1, Ok f8 ->
    let l1 = Flow.latency_s f1 and l8 = Flow.latency_s f8 in
    check bool "8-FPGA stencil slower than single (§5.7)" true (l8 > l1 *. 0.8)
  | Error e, _ -> Alcotest.failf "single: %s" e
  | _, Error e -> Alcotest.failf "eight: %s" e

let test_cnn_routability_matches_paper () =
  (* §5.5: 13x4 routes via Vitis, 13x8 via TAPA; 13x12 and larger fail on
     one device and need TAPA-CS. *)
  let single cols flow =
    let app = Cnn.generate (Cnn.make_config ~cols ~fpgas:1 ()) in
    match flow with
    | `V -> Result.is_ok (Flow.vitis app.App.graph)
    | `T -> Result.is_ok (Flow.tapa ~options:fast_options app.App.graph)
  in
  check bool "13x4 routes on Vitis" true (single 4 `V);
  check bool "13x8 routes on TAPA" true (single 8 `T);
  check bool "13x12 fails on Vitis" false (single 12 `V);
  check bool "13x12 fails on TAPA" false (single 12 `T);
  check bool "13x20 fails on Vitis" false (single 20 `V);
  let app = Cnn.generate (Cnn.make_config ~cols:12 ~fpgas:2 ()) in
  check bool "13x12 routes on 2 FPGAs" true
    (Result.is_ok (Flow.tapa_cs ~options:fast_options ~cluster:(Cluster.make ~board:Board.u55c 2) app.App.graph))

let test_compiler_options_ablations () =
  let g = small_chain ~tasks:6 ~lut:80_000 in
  let cluster = Cluster.make ~board:Board.u55c 2 in
  let with_pipe =
    Compiler.compile ~options:{ fast_options with pipeline_interconnect = true } ~cluster g
  in
  let without_pipe =
    Compiler.compile ~options:{ fast_options with pipeline_interconnect = false } ~cluster g
  in
  match (with_pipe, without_pipe) with
  | Ok a, Ok b -> check bool "pipelining never lowers clock" true (a.Compiler.freq_mhz >= b.Compiler.freq_mhz)
  | Error e, _ | _, Error e -> Alcotest.failf "ablation compile: %s" e

let test_board_generality () =
  (* The flow is board-agnostic: the same design compiles on the U250
     (DDR, 8 slots) and the Stratix-10 model (no URAM, single die). *)
  let g = small_chain ~tasks:6 ~lut:50_000 in
  List.iter
    (fun board ->
      let cluster = Cluster.make ~board 2 in
      match Flow.tapa_cs ~options:fast_options ~cluster g with
      | Ok d ->
        check bool "positive clock" true (d.Flow.freq_mhz > 0.0);
        check bool "simulates" true (Flow.latency_s d > 0.0)
      | Error e -> Alcotest.failf "board flow failed: %s" e)
    [ Board.u250; Board.stratix10 ]

let test_degraded_compile_survives_device_failure () =
  (* Design sized for 2 FPGAs, physical cluster of 3 with one failure:
     the compiler must refloorplan onto the survivors and say so. *)
  let g = small_chain ~tasks:6 ~lut:50_000 in
  let cluster = Cluster.make ~board:Board.u55c 3 in
  let fault_plan = Tapa_cs_network.Fault.make ~seed:7 ~failed_devices:[ 2 ] () in
  let options = { fast_options with fault_plan = Some fault_plan } in
  match Compiler.compile ~options ~cluster g with
  | Error e -> Alcotest.failf "degraded compile failed: %s" e
  | Ok c ->
    check bool "flagged Degraded" true c.Compiler.degraded;
    check bool "fallback chain reported" true (c.Compiler.fallbacks <> []);
    Array.iter
      (fun f -> check bool "dead FPGA avoided" true (f <> 2))
      c.Compiler.inter.Inter_fpga.assignment

let test_degraded_compile_deterministic () =
  let g = small_chain ~tasks:6 ~lut:50_000 in
  let cluster = Cluster.make ~board:Board.u55c 3 in
  let fault_plan = Tapa_cs_network.Fault.make ~seed:11 ~loss_rate:0.02 ~failed_devices:[ 0 ] () in
  let compile jobs =
    match
      Compiler.compile
        ~options:{ fast_options with jobs; fault_plan = Some fault_plan }
        ~cluster g
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile (jobs=%d): %s" jobs e
  in
  let a = compile 1 and b = compile 4 in
  check bool "same assignment across jobs" true
    (a.Compiler.inter.Inter_fpga.assignment = b.Compiler.inter.Inter_fpga.assignment);
  check bool "same fallback chain" true (a.Compiler.fallbacks = b.Compiler.fallbacks);
  check (Alcotest.float 0.0) "same clock" a.Compiler.freq_mhz b.Compiler.freq_mhz

let test_port_bandwidth_capped_by_wire () =
  (* port bandwidth <= width * clock *)
  let b = Taskgraph.Builder.create () in
  ignore
    (Taskgraph.Builder.add_task b ~name:"rd"
       ~compute:(Task.make_compute ~elems:1e5 ~ii:1.0 ())
       ~mem_ports:[ Task.mem_port ~dir:Task.Read ~width_bits:64 ~bytes:1e8 () ]
       ~resources:(Resource.make ~lut:5_000 ()) ());
  let g = Taskgraph.Builder.build b in
  let cluster = Cluster.make ~board:Board.u55c 1 in
  match Compiler.compile ~options:fast_options ~cluster g with
  | Ok c ->
    let bw = Compiler.port_bandwidth_gbps c 0 0 in
    let wire = 64.0 /. 8.0 *. c.Compiler.freq_mhz *. 1e6 /. 1e9 in
    check bool "wire cap respected" true (bw <= wire +. 1e-9)
  | Error e -> Alcotest.failf "compile: %s" e

(* ------------------------------------------------------------------ *)
(* Static verification gate (--verify-static, TCS503)                  *)
(* ------------------------------------------------------------------ *)

let stencil2 () = (Stencil.generate (Stencil.make_config ~iterations:8 ~fpgas:2 ())).App.graph

let test_static_bounds_attached () =
  let g = stencil2 () in
  let cluster = Cluster.make ~board:Board.u55c 2 in
  match Compiler.compile ~options:fast_options ~cluster g with
  | Error e -> Alcotest.failf "compile: %s" e
  | Ok c ->
    let s = c.Compiler.static in
    let module Sp = Tapa_cs_analysis.Static_perf in
    check bool "interval ordered" true (s.Sp.latency_lower_s <= s.Sp.latency_upper_s);
    check bool "interval positive" true (s.Sp.latency_lower_s > 0.0);
    check bool "depths populated" true (s.Sp.min_depths <> []);
    check bool "bottleneck named" true (s.Sp.bottleneck <> None)

let test_verify_static_passes () =
  let g = stencil2 () in
  let cluster = Cluster.make ~board:Board.u55c 2 in
  let options = { fast_options with verify_static = true } in
  (match Compiler.compile ~options ~cluster g with
  | Error e -> Alcotest.failf "verified compile must pass: %s" e
  | Ok _ -> ());
  (* The simulated latency really is inside the attached interval. *)
  match Flow.tapa_cs ~options:fast_options ~cluster g with
  | Error e -> Alcotest.failf "flow: %s" e
  | Ok d ->
    let c = Option.get d.Flow.compiled in
    let s = c.Compiler.static in
    let module Sp = Tapa_cs_analysis.Static_perf in
    let l = Flow.latency_s d in
    check bool "flow latency inside interval" true
      (l >= s.Sp.latency_lower_s && l <= s.Sp.latency_upper_s)

let test_verify_static_catches_injected_violation () =
  let g = stencil2 () in
  let cluster = Cluster.make ~board:Board.u55c 2 in
  let options = { fast_options with verify_static = true } in
  Unix.putenv "TAPA_CS_INJECT_STATIC_VIOLATION" "1";
  let result = Compiler.compile ~options ~cluster g in
  Unix.putenv "TAPA_CS_INJECT_STATIC_VIOLATION" "";
  (match result with
  | Ok _ -> Alcotest.fail "corrupted interval must fail the verified compile"
  | Error e ->
    check bool "names TCS503" true
      (let nl = String.length "TCS503" and hl = String.length e in
       let rec go i = i + nl <= hl && (String.sub e i nl = "TCS503" || go (i + 1)) in
       go 0));
  (* Without the gate the corruption is carried but not enforced. *)
  Unix.putenv "TAPA_CS_INJECT_STATIC_VIOLATION" "1";
  let unchecked = Compiler.compile ~options:fast_options ~cluster g in
  Unix.putenv "TAPA_CS_INJECT_STATIC_VIOLATION" "";
  check bool "unverified compile unaffected" true (Result.is_ok unchecked)

(* ------------------------------------------------------------------ *)
(* Artifact round-trip and golden files                                *)
(* ------------------------------------------------------------------ *)

let compile_stencil2 () =
  let g = stencil2 () in
  let cluster = Cluster.make ~board:Board.u55c 2 in
  match Compiler.compile ~options:fast_options ~cluster g with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile: %s" e

let test_roundtrip_clean () =
  let c = compile_stencil2 () in
  match Emit.verify_roundtrip c with
  | [] -> ()
  | ds ->
    Alcotest.failf "emit -> parse -> verify must be clean, got:\n%s"
      (Tapa_cs_analysis.Diagnostic.render ds)

(* The report is re-read as JSON, so every task name the emitter can
   quote survives the round trip: a comma, double quotes, UTF-8. *)
let test_roundtrip_quoted_names () =
  List.iter
    (fun name ->
      let p = Frontend.program () in
      let data = Frontend.stream p ~name:"data" ~width_bits:512 ~elems:1e5 () in
      Frontend.task p ~name ~writes:[ data ]
        ~reads_hbm:[ Frontend.hbm ~width_bits:512 ~bytes:6.4e6 () ]
        ~compute:(Task.make_compute ~elems:1e5 ~ii:1.0 ())
        ();
      Frontend.task p ~name:"sink" ~reads:[ data ] ();
      let cluster = Cluster.make ~board:Board.u55c 1 in
      match Compiler.compile ~options:fast_options ~cluster (Frontend.build p) with
      | Error e -> Alcotest.failf "task %S: compile: %s" name e
      | Ok c -> (
        match Emit.verify_roundtrip c with
        | [] -> ()
        | ds ->
          Alcotest.failf "task %S: emit -> parse -> verify must be clean, got:\n%s" name
            (Tapa_cs_analysis.Diagnostic.render ds)))
    [ "load,0"; "load \"q\""; "l\xc3\xa9" ]

(* Replace the first occurrence of [old_] in [s] with [new_]; [s]
   unchanged when absent. *)
let replace_first ~old_ ~new_ s =
  let nl = String.length old_ and hl = String.length s in
  let rec find i = if i + nl > hl then -1 else if String.sub s i nl = old_ then i else find (i + 1) in
  let at = find 0 in
  if at < 0 then s
  else String.sub s 0 at ^ new_ ^ String.sub s (at + nl) (hl - at - nl)

let test_roundtrip_catches_tampering () =
  let c = compile_stencil2 () in
  let roundtrip ~tcl_of ~cfg_of ~report = Emit.verify_artifacts c ~tcl_of ~cfg_of ~report in
  let flags code ds = List.exists (fun d -> d.Tapa_cs_analysis.Diagnostic.code = code) ds in
  let tcl = Emit.floorplan_tcl c and cfg = Emit.connectivity_cfg c in
  let report = Emit.design_report_json c in
  (* Rename a placed cell: the Tcl now places a task the floorplanner
     never assigned (and its real task goes missing). *)
  let ds =
    roundtrip
      ~tcl_of:(fun fpga ->
        let t = tcl ~fpga in
        if fpga = 0 then replace_first ~old_:"[get_cells -hier read" ~new_:"[get_cells -hier impostor" t
        else t)
      ~cfg_of:(fun fpga -> cfg ~fpga) ~report
  in
  check bool "tampered tcl flagged" true (flags "TCS601" ds);
  (* Re-channel an HBM binding. *)
  let ds =
    roundtrip
      ~tcl_of:(fun fpga -> tcl ~fpga)
      ~cfg_of:(fun fpga ->
        let t = cfg ~fpga in
        if fpga = 0 then replace_first ~old_:":HBM[0]" ~new_:":HBM[31]" t else t)
      ~report
  in
  check bool "tampered cfg flagged" true (flags "TCS602" ds);
  (* Wrong device count in the report. *)
  let ds =
    roundtrip
      ~tcl_of:(fun fpga -> tcl ~fpga)
      ~cfg_of:(fun fpga -> cfg ~fpga)
      ~report:(replace_first ~old_:"\"fpgas\": 2" ~new_:"\"fpgas\": 3" report)
  in
  check bool "tampered report flagged" true (flags "TCS603" ds);
  (* Understate a crossing-stage comment: the cut-set balance no longer
     re-derives. *)
  let ds =
    roundtrip
      ~tcl_of:(fun fpga ->
        let t = tcl ~fpga in
        replace_first ~old_:": 1 pipeline stage(s)" ~new_:": 2 pipeline stage(s)" t)
      ~cfg_of:(fun fpga -> cfg ~fpga) ~report
  in
  check bool "tampered stage comment flagged" true (flags "TCS604" ds)

(* Golden files: the emitted artifacts for the 8-iteration 2-FPGA stencil,
   with the two wall-clock floorplanner-runtime lines dropped. *)

let normalize s =
  String.split_on_char '\n' s
  |> List.filter (fun l ->
         let has sub =
           let nl = String.length sub and hl = String.length l in
           let rec go i = i + nl <= hl && (String.sub l i nl = sub || go (i + 1)) in
           go 0
         in
         not (has "_floorplan_seconds"))
  |> String.concat "\n"

let golden_check name actual = Golden_file.check name (normalize actual)

let test_emit_golden () =
  let c = compile_stencil2 () in
  golden_check "stencil2_floorplan_f0.tcl.expected" (Emit.floorplan_tcl c ~fpga:0);
  golden_check "stencil2_floorplan_f1.tcl.expected" (Emit.floorplan_tcl c ~fpga:1);
  golden_check "stencil2_connectivity_f0.cfg.expected" (Emit.connectivity_cfg c ~fpga:0);
  golden_check "stencil2_connectivity_f1.cfg.expected" (Emit.connectivity_cfg c ~fpga:1);
  golden_check "stencil2_design_report.json.expected" (Emit.design_report_json c)

(* The search trajectory, pinned at compile level: every solver counter
   and every placement of the nine perfbench compile_cold designs (built
   the same way, caches reset, one domain), and of the serve_stream
   fresh design, stencil 16x2, under solver seeds 1000-1009.  An LP
   layer that returns the same answers by a different route moves
   lp_pivots or bb_nodes here. *)
let solver_golden_designs () =
  let u55c n = Cluster.make ~board:Board.u55c n in
  let app g = g.App.graph in
  let stencil ~iterations ~fpgas = app (Stencil.generate (Stencil.make_config ~iterations ~fpgas ())) in
  let suite =
    [
      ("stencil-64x2", stencil ~iterations:64 ~fpgas:2, u55c 2);
      ("stencil-256x4", stencil ~iterations:256 ~fpgas:4, u55c 4);
      ("cnn-12x2", app (Cnn.generate (Cnn.make_config ~cols:12 ~fpgas:2 ())), u55c 2);
      ("cnn-20x4", app (Cnn.generate (Cnn.make_config ~cols:20 ~fpgas:4 ())), u55c 4);
      ("knn-4M-d8x4", app (Knn.generate (Knn.make_config ~n_points:4_000_000 ~dims:8 ~fpgas:4 ())), u55c 4);
      ("knn-1M-d32x2", app (Knn.generate (Knn.make_config ~n_points:1_000_000 ~dims:32 ~fpgas:2 ())), u55c 2);
      ( "pagerank-google-x4",
        app (Pagerank.generate (Pagerank.make_config ~dataset:Dataset.web_google ~fpgas:4 ())),
        u55c 4 );
      ( "pagerank-google-x8",
        app (Pagerank.generate (Pagerank.make_config ~dataset:Dataset.web_google ~fpgas:8 ())),
        u55c 8 );
      ( "stencil-8x12of16",
        stencil ~iterations:8 ~fpgas:12,
        Cluster.heterogeneous ~boards_per_node:4 [ Board.u55c ] 16 );
    ]
  in
  List.map (fun (name, g, cl) -> (name, 1, g, cl)) suite
  @ List.init 10 (fun k ->
        (Printf.sprintf "stencil-16x2-seed%d" (1000 + k), 1000 + k, stencil ~iterations:16 ~fpgas:2, u55c 2))

let test_solver_counters_golden () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, seed, g, cluster) ->
      Partition.reset_cache ();
      Tapa_cs_sim.Design_sim.reset_cache ();
      let options = { Compiler.default_options with Compiler.seed; jobs = 1 } in
      match Compiler.compile ~options ~cluster g with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok c ->
        let s = Compiler.solver_stats c in
        let ints f = String.concat "," (List.init (Taskgraph.num_tasks g) (fun t -> string_of_int (f t))) in
        Printf.bprintf buf "%s %s\n  fpga %s\n  slot %s\n" name
          (String.concat " "
             (List.map
                (fun f -> Printf.sprintf "%s=%d" f.Tapa_cs_ilp.Counters.key (f.Tapa_cs_ilp.Counters.get s))
                Tapa_cs_ilp.Counters.fields))
          (ints (Compiler.fpga_of c))
          (ints (fun t -> Option.value (Compiler.slot_of c t) ~default:(-1))))
    (solver_golden_designs ());
  Golden_file.check "solver_counters.expected" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* SLO pruning: lossless and counted                                   *)
(* ------------------------------------------------------------------ *)

let chain_design ~label ~elems =
  let b = Taskgraph.Builder.create () in
  let ids =
    List.init 3 (fun i ->
        Taskgraph.Builder.add_task b ~name:(Printf.sprintf "c%d" i)
          ~compute:(Task.make_compute ~elems ~ii:1.0 ())
          ~resources:(Resource.make ~lut:20_000 ~ff:20_000 ()) ())
  in
  let rec link = function
    | a :: (c :: _ as rest) ->
      ignore (Taskgraph.Builder.add_fifo b ~src:a ~dst:c ~width_bits:64 ~elems ());
      link rest
    | _ -> ()
  in
  link ids;
  let g = Taskgraph.Builder.build b in
  let cluster = Cluster.make ~board:Board.u55c 2 in
  match Flow.tapa_cs ~options:fast_options ~cluster g with
  | Ok d -> { d with Flow.label }
  | Error e -> Alcotest.failf "chain %s: %s" label e

let test_simulate_many_slo_lossless () =
  let designs =
    [
      chain_design ~label:"fast" ~elems:1e4;
      chain_design ~label:"mid" ~elems:1e6;
      chain_design ~label:"slow" ~elems:1e8;
    ]
  in
  let bounds =
    List.map (fun d -> (Flow.static_bounds d).Tapa_cs_analysis.Static_perf.latency_lower_s) designs
  in
  (* An SLO between the fastest and slowest lower bounds: some points
     survive, some are pruned. *)
  let slo = (List.nth bounds 0 +. List.nth bounds 2) /. 2.0 in
  check bool "slo splits the corpus" true
    (List.exists (fun b -> b <= slo) bounds && List.exists (fun b -> b > slo) bounds);
  let unpruned = Flow.simulate_many ~jobs:1 designs in
  Tapa_cs_sim.Sim_sweep.reset_static_pruned ();
  let pruned = Flow.simulate_many ~jobs:1 ~slo_latency_s:slo designs in
  check bool "pruning counted" true (Tapa_cs_sim.Sim_sweep.static_pruned () > 0);
  check bool "some survivors" true (pruned <> []);
  check bool "fewer rows than unpruned" true (List.length pruned < List.length unpruned);
  (* Lossless: every surviving row is identical to its unpruned twin. *)
  List.iter
    (fun (label, outcome) ->
      match List.assoc_opt label unpruned with
      | None -> Alcotest.failf "survivor %s missing from the unpruned sweep" label
      | Some reference -> check bool (label ^ " identical") true (outcome = reference))
    pruned;
  (* A survivor's simulated latency can still exceed the SLO (the bound
     is a lower bound, not a prediction) — but no pruned point could have
     met it: its lower bound already exceeds the SLO. *)
  List.iter
    (fun d ->
      let lb = (Flow.static_bounds d).Tapa_cs_analysis.Static_perf.latency_lower_s in
      if List.mem_assoc d.Flow.label pruned |> not then
        check bool (d.Flow.label ^ " pruned soundly") true (lb > slo))
    designs

let test_autoscale_slo () =
  let kernel =
    {
      Autoscale.name = "slo-kernel";
      elems = 1e8;
      ops_per_elem = 8.0;
      bytes_per_elem = 8.0;
      pe_resources = Resource.make ~lut:30_000 ~ff:45_000 ~bram:37 ~dsp:75 ();
      pe_lanes = 4;
      exchange_bytes = 8e6;
    }
  in
  let cluster = Cluster.make ~board:Board.u55c 3 in
  (* Unreachable SLO: everything prunes, nothing simulates. *)
  Tapa_cs_sim.Sim_sweep.reset_static_pruned ();
  let rows = Autoscale.measured_sweep_slo ~jobs:1 ~slo_latency_s:1e-9 ~cluster kernel in
  check int "all pruned" (List.length rows) (Tapa_cs_sim.Sim_sweep.static_pruned ());
  List.iter
    (fun (_, _, row) ->
      match row with
      | Tapa_cs_sim.Sim_sweep.Pruned { lower_bound_s } ->
        check bool "bound above slo" true (lower_bound_s > 1e-9)
      | Tapa_cs_sim.Sim_sweep.Simulated _ -> Alcotest.fail "nothing can meet a 1ns SLO")
    rows;
  (* Generous SLO: nothing prunes, and the rows match the unpruned sweep. *)
  let unpruned = Autoscale.measured_sweep ~jobs:1 ~cluster kernel in
  Tapa_cs_sim.Sim_sweep.reset_static_pruned ();
  let rows = Autoscale.measured_sweep_slo ~jobs:1 ~slo_latency_s:3600.0 ~cluster kernel in
  check int "none pruned" 0 (Tapa_cs_sim.Sim_sweep.static_pruned ());
  List.iter2
    (fun (k1, _, row) (k2, _, outcome) ->
      check int "same point" k1 k2;
      match row with
      | Tapa_cs_sim.Sim_sweep.Simulated o -> check bool "same outcome" true (o = outcome)
      | Tapa_cs_sim.Sim_sweep.Pruned _ -> Alcotest.fail "generous SLO must not prune")
    rows unpruned

let () =
  Alcotest.run "core"
    [
      ( "compiler",
        [
          Alcotest.test_case "seven steps" `Quick test_compile_seven_steps;
          Alcotest.test_case "ablation knobs" `Quick test_compiler_options_ablations;
          Alcotest.test_case "port bandwidth wire cap" `Quick test_port_bandwidth_capped_by_wire;
          Alcotest.test_case "board generality (U250, Stratix-10)" `Quick test_board_generality;
          Alcotest.test_case "jobs=1 and jobs=4 outputs identical" `Quick test_jobs_determinism;
          Alcotest.test_case "floorplanner runtimes within compile wall time" `Quick
            test_floorplan_runtimes_within_wall;
          Alcotest.test_case "caller-owned pool equivalent and survives" `Quick
            test_external_pool_equivalence;
          Alcotest.test_case "cache-cold and cache-warm outputs identical" `Quick
            test_cache_cold_warm_identity;
          Alcotest.test_case "degraded compile survives device failure" `Quick
            test_degraded_compile_survives_device_failure;
          Alcotest.test_case "degraded compile deterministic" `Quick
            test_degraded_compile_deterministic;
        ] );
      ( "flows",
        [
          Alcotest.test_case "all three flows run" `Quick test_flows_on_small_design;
          Alcotest.test_case "TAPA clock >= Vitis clock" `Quick test_tapa_frequency_beats_vitis;
          Alcotest.test_case "multi-FPGA unlocks big designs" `Quick test_oversized_design_needs_multi_fpga;
          Alcotest.test_case "CNN routability (§5.5)" `Slow test_cnn_routability_matches_paper;
        ] );
      ( "golden shapes",
        [
          Alcotest.test_case "parallel design scales" `Slow test_multi_fpga_speedup_on_parallel_design;
          Alcotest.test_case "pagerank keeps scaling" `Slow test_pagerank_superlinear_shape;
          Alcotest.test_case "8-FPGA stencil slowdown (§5.7)" `Slow test_stencil_8fpga_internode_slowdown;
        ] );
      ( "static verifier",
        [
          Alcotest.test_case "bounds attached to the compile" `Quick test_static_bounds_attached;
          Alcotest.test_case "--verify-static passes on honest bounds" `Quick
            test_verify_static_passes;
          Alcotest.test_case "--verify-static catches injected violation" `Quick
            test_verify_static_catches_injected_violation;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "emit -> parse -> verify is clean" `Quick test_roundtrip_clean;
          Alcotest.test_case "quoted task names round-trip" `Quick test_roundtrip_quoted_names;
          Alcotest.test_case "round-trip catches tampering" `Quick test_roundtrip_catches_tampering;
          Alcotest.test_case "emitters match golden files" `Quick test_emit_golden;
          Alcotest.test_case "solver counters and placements golden" `Quick
            test_solver_counters_golden;
        ] );
      ( "slo pruning",
        [
          Alcotest.test_case "simulate_many pruning is lossless" `Quick
            test_simulate_many_slo_lossless;
          Alcotest.test_case "autoscale sweep pruning" `Quick test_autoscale_slo;
        ] );
    ]
