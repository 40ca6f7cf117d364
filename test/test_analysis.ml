(* Tests for the static design linter: the diagnostics core, each TCS
   code on a minimal trigger graph, the error-cleanliness of the shipped
   benchmarks, the seeded-defect example, the ILP model validator and
   the compiler's step-0 gate. *)

open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_analysis
module Ilp = Tapa_cs_ilp
module Rat = Tapa_cs_util.Rat

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let codes_of ds = List.sort_uniq compare (List.map (fun d -> d.Diagnostic.code) ds)
let has code ds = List.mem code (codes_of ds)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let cluster1 () = Cluster.make ~board:Board.u55c 1

(* Minimal builders ------------------------------------------------- *)

let compute = Task.make_compute ~elems:1000.0 ~ii:1.0 ~elem_bits:32 ()

let task ?(compute = compute) ?(mem_ports = []) ?resources b name =
  Taskgraph.Builder.add_task b ~name ?compute:(Some compute) ~mem_ports ?resources ()

let fifo ?(width = 32) ?(depth = 16) ?(elems = 1000.0) ?mode b src dst =
  ignore (Taskgraph.Builder.add_fifo b ~src ~dst ~width_bits:width ~depth ~elems ?mode ())

let read_port = Task.mem_port ~dir:Task.Read ~width_bits:32 ~bytes:4000.0 ()
let write_port = Task.mem_port ~dir:Task.Write ~width_bits:32 ~bytes:4000.0 ()

(* A well-formed pipeline: read -> mid -> write. *)
let clean_graph () =
  let b = Taskgraph.Builder.create () in
  let a = task b "read" ~mem_ports:[ read_port ] in
  let m = task b "mid" in
  let z = task b "write" ~mem_ports:[ write_port ] in
  fifo b a m;
  fifo b m z;
  Taskgraph.Builder.build b

(* ------------------------------------------------------------------ *)
(* Diagnostics core                                                    *)
(* ------------------------------------------------------------------ *)

let test_registry_well_formed () =
  let codes = List.map (fun (c, _, _, _) -> c) Diagnostic.registry in
  check int "codes unique" (List.length codes) (List.length (List.sort_uniq compare codes));
  List.iter
    (fun (c, _, meaning, _) ->
      check bool (c ^ " prefixed") true (String.length c = 6 && String.sub c 0 3 = "TCS");
      check bool (c ^ " described") true (meaning <> "" && Diagnostic.describe c = meaning))
    Diagnostic.registry;
  (* Unknown codes fail safe as errors. *)
  check bool "unknown is error" true (Diagnostic.default_severity "TCS999" = Diagnostic.Error)

let test_render_pretty_and_json () =
  let d =
    Diagnostic.make ~code:"TCS101" ~severity:Diagnostic.Error
      ~loc:(Diagnostic.Fifo { id = 3; src = "a"; dst = "b" })
      ~hint:"break the \"cycle\"" "bulk FIFO on a cycle"
  in
  let pretty = Diagnostic.render [ d ] in
  check bool "pretty has code" true (contains "error[TCS101]" pretty);
  check bool "pretty has loc" true (contains "fifo #3 (a -> b)" pretty);
  check bool "pretty has hint" true (contains "fix:" pretty);
  check bool "pretty has tally" true (contains "1 error(s)" pretty);
  let json = Diagnostic.render ~json:true [ d ] in
  check bool "json one line" true (not (String.contains json '\n'));
  check bool "json code" true (contains {|"code":"TCS101"|} json);
  check bool "json escaping" true (contains {|\"cycle\"|} json)

let test_sort_errors_first () =
  let mk code sev = Diagnostic.make ~code ~severity:sev ~loc:Diagnostic.Design "m" in
  let sorted =
    Diagnostic.sort
      [ mk "TCS201" Diagnostic.Warning; mk "TCS301" Diagnostic.Error; mk "TCS001" Diagnostic.Warning ]
  in
  check bool "error first" true ((List.hd sorted).Diagnostic.code = "TCS301");
  check int "errors subset" 1 (List.length (Diagnostic.errors sorted))

(* ------------------------------------------------------------------ *)
(* Graph-shape lints                                                   *)
(* ------------------------------------------------------------------ *)

let test_clean_graph_clean () =
  let g = clean_graph () in
  check bool "no shape findings" true (Lint.graph_shape g = []);
  check bool "no deadlock findings" true (Lint.deadlock g = []);
  check bool "no rate findings" true (Lint.rates g = [])

let test_disconnected_and_dead () =
  let b = Taskgraph.Builder.create () in
  let a = task b "read" ~mem_ports:[ read_port ] in
  let z = task b "write" ~mem_ports:[ write_port ] in
  fifo b a z;
  (* No compute, no streams, no ports: dead, and its own component. *)
  ignore
    (Taskgraph.Builder.add_task b ~name:"idle"
       ~compute:(Task.make_compute ~elems:0.0 ())
       ());
  let ds = Lint.graph_shape (Taskgraph.Builder.build b) in
  check bool "TCS001 raised" true (has "TCS001" ds);
  check bool "TCS002 raised" true (has "TCS002" ds)

let test_no_source_no_sink_unreachable () =
  (* A pure 2-cycle: no task qualifies as source or sink. *)
  let b = Taskgraph.Builder.create () in
  let x = task b "x" in
  let y = task b "y" in
  fifo b x y;
  fifo b y x;
  let ds = Lint.graph_shape (Taskgraph.Builder.build b) in
  check bool "TCS003 raised" true (has "TCS003" ds);
  check bool "TCS004 raised" true (has "TCS004" ds);
  (* Unreachability needs a source to be unreachable from. *)
  let b = Taskgraph.Builder.create () in
  let r = task b "read" ~mem_ports:[ read_port ] in
  let w = task b "write" ~mem_ports:[ write_port ] in
  fifo b r w;
  let x = task b "x" in
  let y = task b "y" in
  fifo b x y;
  fifo b y x;
  let ds = Lint.graph_shape (Taskgraph.Builder.build b) in
  check bool "TCS005 on both spinners" true
    (List.length (List.filter (fun d -> d.Diagnostic.code = "TCS005") ds) = 2)

(* ------------------------------------------------------------------ *)
(* Deadlock lints                                                      *)
(* ------------------------------------------------------------------ *)

let cycle_graph ~mode () =
  let b = Taskgraph.Builder.create () in
  let r = task b "read" ~mem_ports:[ read_port ] in
  let x = task b "x" in
  let y = task b "y" in
  fifo b r x;
  fifo b x y ?mode:(Some mode);
  fifo b y x;
  let w = task b "write" ~mem_ports:[ write_port ] in
  fifo b y w;
  Taskgraph.Builder.build b

let test_bulk_cycle_is_error () =
  let ds = Lint.deadlock (cycle_graph ~mode:Fifo.Bulk ()) in
  check bool "TCS101 raised" true (has "TCS101" ds);
  check bool "TCS101 is error" true (Diagnostic.errors ds <> [])

let test_stream_cycle_is_warning () =
  let ds = Lint.deadlock (cycle_graph ~mode:Fifo.Stream ()) in
  check bool "TCS102 raised" true (has "TCS102" ds);
  check bool "only warnings" true (Diagnostic.errors ds = [])

let test_reconvergent_depth () =
  (* Long arm src->a->b->c->join vs. a depth-2 shortcut src->join: the
     shortcut FIFO must buffer 3 tokens while the arm catches up. *)
  let b = Taskgraph.Builder.create () in
  let s = task b "src" ~mem_ports:[ read_port ] in
  let a = task b "a" in
  let b2 = task b "b" in
  let c = task b "c" in
  let j = task b "join" ~mem_ports:[ write_port ] in
  fifo b s a;
  fifo b a b2;
  fifo b b2 c;
  fifo b c j;
  fifo b s j ~depth:2;
  let ds = Lint.deadlock (Taskgraph.Builder.build b) in
  check bool "TCS103 raised" true (has "TCS103" ds)

(* ------------------------------------------------------------------ *)
(* Rate / width lints                                                  *)
(* ------------------------------------------------------------------ *)

let test_rate_mismatch () =
  let b = Taskgraph.Builder.create () in
  let fast = task b "fast" ~compute:(Task.make_compute ~elems:1000.0 ~ii:1.0 ()) in
  let slow =
    task b "slow"
      ~compute:(Task.make_compute ~elems:1000.0 ~ii:16.0 ())
      ~mem_ports:[ write_port ]
  in
  fifo b fast slow;
  let ds = Lint.rates (Taskgraph.Builder.build b) in
  check bool "TCS201 raised" true (has "TCS201" ds)

let test_width_conflict () =
  let b = Taskgraph.Builder.create () in
  let a = task b "a" in
  let z = task b "z" ~mem_ports:[ write_port ] in
  fifo b a z ~width:48;
  let ds = Lint.rates (Taskgraph.Builder.build b) in
  check bool "TCS202 raised" true (has "TCS202" ds);
  (* 2:1 serialization is legitimate, not a conflict. *)
  let b = Taskgraph.Builder.create () in
  let a = task b "a" in
  let z = task b "z" ~mem_ports:[ write_port ] in
  fifo b a z ~width:64;
  check bool "divisor widths pass" true (Lint.rates (Taskgraph.Builder.build b) = [])

(* ------------------------------------------------------------------ *)
(* Capacity lints                                                      *)
(* ------------------------------------------------------------------ *)

let huge = Resource.make ~lut:2_000_000 ~ff:100 ~bram:10 ~dsp:10 ()

let capacity_of g = Lint.capacity ~cluster:(cluster1 ()) ~synthesis:(Tapa_cs_hls.Synthesis.run g) g

let test_capacity_overflow () =
  let b = Taskgraph.Builder.create () in
  let a = task b "big" ~resources:huge ~mem_ports:[ read_port ] in
  let z = task b "write" ~mem_ports:[ write_port ] in
  fifo b a z;
  let ds = capacity_of (Taskgraph.Builder.build b) in
  check bool "TCS301 raised" true (has "TCS301" ds);
  check bool "clean design passes" true (capacity_of (clean_graph ()) = [])

let test_channel_binding () =
  let b = Taskgraph.Builder.create () in
  let bad = Task.mem_port ~channel:99 ~dir:Task.Read ~width_bits:32 ~bytes:4000.0 () in
  let a = task b "a" ~mem_ports:[ bad ] in
  let z = task b "z" ~mem_ports:[ write_port ] in
  fifo b a z;
  let ds = capacity_of (Taskgraph.Builder.build b) in
  check bool "TCS302 raised" true (has "TCS302" ds)

let test_port_counts () =
  (* 5 tasks x 7 ports = 35 ports > 32 channels, but each task is fine. *)
  let b = Taskgraph.Builder.create () in
  let ports n = List.init n (fun _ -> read_port) in
  let ts = List.init 5 (fun i -> task b (Printf.sprintf "t%d" i) ~mem_ports:(ports 7)) in
  (match ts with
  | t0 :: rest -> List.iter (fun t -> fifo b t0 t) rest
  | [] -> ());
  let ds = capacity_of (Taskgraph.Builder.build b) in
  check bool "TCS303 raised" true (has "TCS303" ds);
  check bool "no TCS304" true (not (has "TCS304" ds));
  (* One task with 33 ports trips the per-board bound too. *)
  let b = Taskgraph.Builder.create () in
  let a = task b "mega" ~mem_ports:(ports 33) in
  let z = task b "z" ~mem_ports:[ write_port ] in
  fifo b a z;
  let ds = capacity_of (Taskgraph.Builder.build b) in
  check bool "TCS304 raised" true (has "TCS304" ds)

(* ------------------------------------------------------------------ *)
(* ILP validation                                                      *)
(* ------------------------------------------------------------------ *)

let lin x = Ilp.Linear.var x

let test_ilp_trivially_infeasible () =
  let m = Ilp.Model.create () in
  let x =
    Ilp.Model.add_var m ~name:"x" ~lb:(Rat.of_int 2) ~ub:(Rat.of_int 5) Ilp.Model.Continuous
  in
  Ilp.Model.add_constraint m ~name:"cap" (lin x) Ilp.Model.Le Rat.one;
  (match Ilp.Validate.check m with
  | [ Ilp.Validate.Infeasible_constraint { name; _ } ] -> check bool "named" true (name = "cap")
  | _ -> Alcotest.fail "expected one infeasible issue");
  check bool "solver rejects fast" true (Ilp.Branch_bound.solve m = Ilp.Branch_bound.Infeasible);
  let ds = Lint.ilp_model m in
  check bool "TCS401 raised" true (has "TCS401" ds)

let test_ilp_trivially_unbounded () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~name:"x" Ilp.Model.Continuous in
  Ilp.Model.set_objective m Ilp.Model.Maximize (lin x);
  (match Ilp.Validate.check m with
  | [ Ilp.Validate.Unbounded_direction { var; _ } ] -> check bool "named" true (var = "x")
  | _ -> Alcotest.fail "expected one unbounded issue");
  check bool "solver rejects fast" true (Ilp.Branch_bound.solve m = Ilp.Branch_bound.Unbounded);
  check bool "TCS402 raised" true (has "TCS402" (Lint.ilp_model m));
  (* A capping constraint restores soundness. *)
  Ilp.Model.add_constraint m ~name:"cap" (lin x) Ilp.Model.Le (Rat.of_int 7);
  check bool "capped model passes" true (Ilp.Validate.check m = [])

let test_named_constraints () =
  let m = Ilp.Model.create () in
  let x = Ilp.Model.add_var m ~name:"x" ~ub:Rat.one Ilp.Model.Continuous in
  Ilp.Model.add_constraint m ~name:"first" (lin x) Ilp.Model.Le Rat.one;
  Ilp.Model.add_constraint m (lin x) Ilp.Model.Ge Rat.zero;
  match Ilp.Model.named_constraints m with
  | [ (n0, _, _, _); (n1, _, _, _) ] ->
    check bool "explicit name kept" true (n0 = "first");
    check bool "fallback name indexed" true (n1 = "c1")
  | l -> Alcotest.failf "expected 2 constraints, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Shipped apps and the seeded-defect example                          *)
(* ------------------------------------------------------------------ *)

let shipped () =
  [
    Tapa_cs_apps.Stencil.generate (Tapa_cs_apps.Stencil.make_config ~iterations:64 ~fpgas:1 ());
    Tapa_cs_apps.Pagerank.generate
      (Tapa_cs_apps.Pagerank.make_config
         ~dataset:(List.hd Tapa_cs_apps.Dataset.all)
         ~fpgas:1 ());
    Tapa_cs_apps.Knn.generate (Tapa_cs_apps.Knn.make_config ~n_points:4_000_000 ~dims:2 ~fpgas:1 ());
    Tapa_cs_apps.Cnn.generate (Tapa_cs_apps.Cnn.make_config ~cols:8 ~fpgas:1 ());
  ]

let test_shipped_apps_error_clean () =
  List.iter
    (fun (a : Tapa_cs_apps.App.t) ->
      let ds = Lint.run_all ~cluster:(cluster1 ()) a.graph in
      match Diagnostic.errors ds with
      | [] -> ()
      | errs ->
        Alcotest.failf "%s has %d lint error(s): %s" a.name (List.length errs)
          (Diagnostic.render errs))
    (shipped ())

let test_broken_app_flagged () =
  let a = Tapa_cs_apps.Broken.generate () in
  let ds = Lint.run_all ~cluster:(cluster1 ()) a.Tapa_cs_apps.App.graph in
  Alcotest.(check (list string))
    "expected codes" Tapa_cs_apps.Broken.expected_codes (codes_of ds);
  check bool "has errors" true (Diagnostic.errors ds <> [])

(* ------------------------------------------------------------------ *)
(* Compiler gate and simulator deadlock                                *)
(* ------------------------------------------------------------------ *)

let test_compile_gate_oversubscribed () =
  let b = Taskgraph.Builder.create () in
  let a = task b "big" ~resources:huge ~mem_ports:[ read_port ] in
  let z = task b "write" ~mem_ports:[ write_port ] in
  fifo b a z;
  let g = Taskgraph.Builder.build b in
  (match Tapa_cs.Compiler.compile ~cluster:(cluster1 ()) g with
  | Error e -> check bool "coded diagnostic" true (contains "TCS301" e)
  | Ok _ -> Alcotest.fail "expected the step-0 gate to reject");
  (* The same design with the gate off fails later, without the code. *)
  let options = { Tapa_cs.Compiler.default_options with lint = false } in
  match Tapa_cs.Compiler.compile ~options ~cluster:(cluster1 ()) g with
  | Error e -> check bool "uncoded failure" true (not (contains "TCS301" e))
  | Ok _ -> Alcotest.fail "expected the floorplanner to reject"

let test_compile_gate_bulk_cycle () =
  let g = cycle_graph ~mode:Fifo.Bulk () in
  match Tapa_cs.Compiler.compile ~cluster:(cluster1 ()) g with
  | Error e -> check bool "coded diagnostic" true (contains "TCS101" e)
  | Ok _ -> Alcotest.fail "expected the step-0 gate to reject"

let test_sim_deadlock_named () =
  let g = cycle_graph ~mode:Fifo.Bulk () in
  let cluster = cluster1 () in
  let synthesis = Tapa_cs_hls.Synthesis.run g in
  let cfg =
    Tapa_cs_sim.Design_sim.make_config ~graph:g
      ~assignment:(Array.make (Taskgraph.num_tasks g) 0)
      ~freq_mhz:[| 200.0 |] ~cluster ~synthesis ()
  in
  match Tapa_cs_sim.Design_sim.run cfg with
  | exception Tapa_cs_sim.Design_sim.Deadlock d ->
    check bool "names a blocked task" true (d.tasks <> []);
    check bool "points at the linter" true
      (contains "TCS101" d.message && contains "lint" d.message)
  | _ -> Alcotest.fail "expected Design_sim.Deadlock"

(* ------------------------------------------------------------------ *)
(* Static performance bounds (TCS5xx)                                  *)
(* ------------------------------------------------------------------ *)

module Design_sim = Tapa_cs_sim.Design_sim

let sim_config ?(chunks = 8) ?(fpgas = 2) g =
  let board = Board.u55c () in
  let cluster = Cluster.make ~board:(fun () -> board) fpgas in
  let synthesis = Tapa_cs_hls.Synthesis.run ~board g in
  let assignment = Array.init (Taskgraph.num_tasks g) (fun i -> i mod fpgas) in
  Design_sim.make_config ~chunks ~graph:g ~assignment ~freq_mhz:(Array.make fpgas 300.0)
    ~cluster ~synthesis ()

let reconvergent ~shortcut_depth () =
  let b = Taskgraph.Builder.create () in
  let s = task b "src" ~mem_ports:[ read_port ] in
  let a = task b "a" in
  let b2 = task b "b" in
  let c = task b "c" in
  let j = task b "join" ~mem_ports:[ write_port ] in
  fifo b s a;
  fifo b a b2;
  fifo b b2 c;
  fifo b c j;
  fifo b s j ~depth:shortcut_depth;
  Taskgraph.Builder.build b

(* clean_graph with every FIFO declared absurdly deep. *)
let deep_graph () =
  let b = Taskgraph.Builder.create () in
  let a = task b "read" ~mem_ports:[ read_port ] in
  let m = task b "mid" in
  let z = task b "write" ~mem_ports:[ write_port ] in
  fifo b a m ~depth:512;
  fifo b m z ~depth:512;
  Taskgraph.Builder.build b

let inside (s : Static_perf.t) latency =
  latency >= s.Static_perf.latency_lower_s && latency <= s.Static_perf.latency_upper_s

let test_bounds_contain_unit_designs () =
  List.iter
    (fun (label, fpgas, g) ->
      let cfg = sim_config ~fpgas g in
      let s = Static_perf.bounds cfg in
      check bool (label ^ ": interval ordered") true
        (s.Static_perf.latency_lower_s <= s.Static_perf.latency_upper_s
        && s.Static_perf.latency_lower_s > 0.0);
      check bool (label ^ ": ii positive") true (s.Static_perf.steady_ii_s > 0.0);
      check bool (label ^ ": throughput inverse") true
        (Float.abs (s.Static_perf.throughput_chunks_per_s *. s.Static_perf.steady_ii_s -. 1.0)
        < 1e-9);
      check bool (label ^ ": bottleneck named") true (s.Static_perf.bottleneck <> None);
      let r = Design_sim.run ~cache:false cfg in
      check bool (label ^ ": simulated latency inside") true (inside s r.Design_sim.latency_s))
    [
      ("clean x1", 1, clean_graph ());
      ("clean x2", 2, clean_graph ());
      ("reconvergent x1", 1, reconvergent ~shortcut_depth:16 ());
      ("reconvergent x2", 2, reconvergent ~shortcut_depth:16 ());
      ("deep x2", 2, deep_graph ());
    ]

(* Mirror of test_sim's random layered fan-out/fan-in corpus. *)
let random_pipeline_config seed =
  let rng = Tapa_cs_util.Prng.create seed in
  let b = Taskgraph.Builder.create () in
  let stages = 2 + Tapa_cs_util.Prng.int rng 4 in
  let widths = [| 1; 2; 4 |] in
  let layers =
    Array.init stages (fun li ->
        Array.init
          (1 + Tapa_cs_util.Prng.int rng widths.(li mod 3))
          (fun ni ->
            Taskgraph.Builder.add_task b
              ~name:(Printf.sprintf "l%dn%d" li ni)
              ~compute:
                (Task.make_compute
                   ~elems:(float_of_int (100 + Tapa_cs_util.Prng.int rng 1000))
                   ~ii:1.0 ())
              ()))
  in
  for li = 0 to stages - 2 do
    Array.iter
      (fun src ->
        let dst = layers.(li + 1).(Tapa_cs_util.Prng.int rng (Array.length layers.(li + 1))) in
        ignore
          (Taskgraph.Builder.add_fifo b ~src ~dst
             ~elems:(float_of_int (50 + Tapa_cs_util.Prng.int rng 500))
             ()))
      layers.(li)
  done;
  for li = 0 to stages - 2 do
    Array.iter
      (fun dst ->
        ignore (Taskgraph.Builder.add_fifo b ~src:layers.(li).(0) ~dst ~elems:100.0 ()))
      layers.(li + 1)
  done;
  let g = Taskgraph.Builder.build b in
  let board = Board.u55c () in
  let cluster = Cluster.make ~board:(fun () -> board) 2 in
  let synthesis = Tapa_cs_hls.Synthesis.run ~board g in
  let assignment = Array.init (Taskgraph.num_tasks g) (fun _ -> Tapa_cs_util.Prng.int rng 2) in
  Design_sim.make_config ~chunks:8 ~graph:g ~assignment ~freq_mhz:[| 300.0; 250.0 |] ~cluster
    ~synthesis ()

(* Property: over the random corpus, the closed-form interval contains
   the simulated latency — the soundness gate. *)
let prop_static_bounds_sound =
  QCheck.Test.make ~name:"static interval contains sim latency" ~count:40
    (QCheck.int_range 0 10_000)
    (fun seed ->
      let cfg = random_pipeline_config seed in
      let s = Static_perf.bounds cfg in
      let r = Design_sim.run ~cache:false cfg in
      s.Static_perf.latency_lower_s <= s.Static_perf.latency_upper_s
      && inside s r.Design_sim.latency_s)

let test_interval_check () =
  let s = Static_perf.bounds (sim_config (clean_graph ())) in
  let mid = (s.Static_perf.latency_lower_s +. s.Static_perf.latency_upper_s) /. 2.0 in
  check bool "inside passes" true (Static_perf.interval_check s ~latency_s:mid = None);
  (match Static_perf.interval_check s ~latency_s:(s.Static_perf.latency_upper_s *. 2.0 +. 1.0) with
  | Some d ->
    check bool "TCS503" true (d.Diagnostic.code = "TCS503");
    check bool "is error" true (d.Diagnostic.severity = Diagnostic.Error)
  | None -> Alcotest.fail "latency above upper must flag TCS503");
  match Static_perf.interval_check s ~latency_s:(s.Static_perf.latency_lower_s /. 2.0) with
  | Some d -> check bool "below lower flags too" true (d.Diagnostic.code = "TCS503")
  | None -> Alcotest.fail "latency below lower must flag TCS503"

let test_depth_diagnostics () =
  (* Shallow shortcut across a 4-hop arm: minimal depth exceeds 2. *)
  let g = reconvergent ~shortcut_depth:2 () in
  let s = Static_perf.analyze (sim_config ~fpgas:1 g) in
  check bool "min_depths populated" true (s.Static_perf.min_depths <> []);
  let ds = Static_perf.depth_diagnostics ~graph:g s in
  check bool "TCS501 raised" true (has "TCS501" ds);
  check bool "TCS501 is warning" true
    (List.for_all
       (fun d -> d.Diagnostic.code <> "TCS501" || d.Diagnostic.severity = Diagnostic.Warning)
       ds);
  (* A comfortable depth silences it. *)
  let g = reconvergent ~shortcut_depth:16 () in
  let s = Static_perf.analyze (sim_config ~fpgas:1 g) in
  check bool "deep shortcut clean" true
    (not (has "TCS501" (Static_perf.depth_diagnostics ~graph:g s)));
  (* 512 deep on a straight pipe is flagged wasteful, as info. *)
  let g = deep_graph () in
  let s = Static_perf.analyze (sim_config ~fpgas:1 g) in
  let ds = Static_perf.depth_diagnostics ~graph:g s in
  check bool "TCS502 raised" true (has "TCS502" ds);
  check bool "TCS502 only info" true (Diagnostic.errors ds = []);
  (* The default depth-16 pipeline raises neither. *)
  let g = clean_graph () in
  let s = Static_perf.analyze (sim_config ~fpgas:1 g) in
  check bool "defaults clean" true (Static_perf.depth_diagnostics ~graph:g s = [])

(* bounds is the screening path: it must agree with analyze on the
   interval and skip only the depth work. *)
let test_bounds_vs_analyze () =
  let cfg = sim_config (clean_graph ()) in
  let b = Static_perf.bounds cfg and a = Static_perf.analyze cfg in
  check bool "same interval" true
    (b.Static_perf.latency_lower_s = a.Static_perf.latency_lower_s
    && b.Static_perf.latency_upper_s = a.Static_perf.latency_upper_s
    && b.Static_perf.steady_ii_s = a.Static_perf.steady_ii_s);
  check bool "bounds skips depths" true (b.Static_perf.min_depths = []);
  check bool "analyze computes depths" true (a.Static_perf.min_depths <> [])

(* ------------------------------------------------------------------ *)
(* Artifact round-trip checking (TCS6xx)                               *)
(* ------------------------------------------------------------------ *)

module AC = Artifact_check

let sample_tcl =
  String.concat "\n"
    [
      "# TAPA-CS floorplan";
      "create_pblock pblock_SLR0_X0";
      "resize_pblock pblock_SLR0_X0 -add CLOCKREGION_X0Y0:CLOCKREGION_X3Y3";
      "add_cells_to_pblock pblock_SLR0_X0 [get_cells -hier read]";
      "create_pblock pblock_SLR1_X0";
      "add_cells_to_pblock pblock_SLR1_X0 [get_cells -hier mid]";
      "# pblock_SLR0_X0 abuts HBM channels 0-7";
      "# fifo read->mid: 2 pipeline stage(s) inserted at slot crossings";
      "";
    ]

let sample_cfg =
  String.concat "\n"
    [
      "[connectivity]";
      "sp=read.m_axi_0:HBM[3]";
      "stream_connect=mid.out:hivenet_tx.in   # to FPGA 1";
      "stream_connect=hivenet_rx.out:read.in   # from FPGA 1";
      "";
    ]

let sample_report =
  String.concat "\n"
    [
      "{";
      "  \"fpgas\": 2,";
      "  \"clock_mhz\": 250.0,";
      "  \"l1_floorplan_seconds\": 0.010,";
      "  \"cut_fifos\": [3, 5],";
      "  \"devices\": [";
      "    { \"index\": 0, \"clock_mhz\": 250.0, \"tasks\": [\"read\", \"mid\"] },";
      "    { \"index\": 1, \"clock_mhz\": 260.0, \"tasks\": [\"write\"] }";
      "  ]";
      "}";
    ]

let test_parse_floorplan () =
  let fp = AC.parse_floorplan_tcl sample_tcl in
  check int "two pblocks" 2 (List.length fp.AC.pblocks);
  check bool "read placed" true (List.assoc "SLR0_X0" fp.AC.pblocks = [ "read" ]);
  check bool "mid placed" true (List.assoc "SLR1_X0" fp.AC.pblocks = [ "mid" ]);
  check bool "stage note" true (fp.AC.stage_notes = [ ("read", "mid", 2) ])

let test_parse_connectivity () =
  let conn = AC.parse_connectivity_cfg sample_cfg in
  check bool "binding" true
    (conn.AC.bindings = [ { AC.task = "read"; port_index = 0; channel = 3 } ]);
  check bool "streams" true
    (conn.AC.streams
    = [
        { AC.task = "mid"; dir = `Tx; peer_fpga = 1 };
        { AC.task = "read"; dir = `Rx; peer_fpga = 1 };
      ])

let test_parse_report () =
  (match AC.parse_design_report sample_report with
  | Error m -> Alcotest.failf "report should parse: %s" m
  | Ok r ->
    check int "fpgas" 2 r.AC.fpgas;
    check bool "clock" true (r.AC.clock_mhz = 250.0);
    check bool "cut ids" true (r.AC.cut_fifo_ids = [ 3; 5 ]);
    check bool "device clocks" true (r.AC.device_clock_mhz = [ (0, 250.0); (1, 260.0) ]);
    check bool "device tasks" true
      (r.AC.device_tasks = [ (0, [ "read"; "mid" ]); (1, [ "write" ]) ]));
  match AC.parse_design_report "{}" with
  | Error m -> check bool "error names the field" true (contains "devices" m)
  | Ok _ -> Alcotest.fail "junk must not parse"

let good_slots = [ ("read", "SLR0_X0"); ("mid", "SLR1_X0") ]

let test_check_floorplan () =
  let fp = AC.parse_floorplan_tcl sample_tcl in
  check bool "faithful passes" true (AC.check_floorplan ~fpga:0 ~expected_slots:good_slots fp = []);
  let ds =
    AC.check_floorplan ~fpga:0
      ~expected_slots:[ ("read", "SLR1_X0"); ("mid", "SLR1_X0"); ("ghost", "SLR0_X0") ]
      fp
  in
  check bool "TCS601 on wrong slot" true (has "TCS601" ds);
  (* wrong slot for read, missing ghost = 2 findings *)
  check int "one per defect" 2 (List.length ds);
  check bool "all errors" true (List.length (Diagnostic.errors ds) = 2);
  (* A cell the floorplanner never assigned is also flagged. *)
  let ds = AC.check_floorplan ~fpga:0 ~expected_slots:[ ("read", "SLR0_X0") ] fp in
  check bool "unassigned cell flagged" true (has "TCS601" ds)

let test_check_connectivity () =
  let conn = AC.parse_connectivity_cfg sample_cfg in
  let expected_bindings = [ { AC.task = "read"; port_index = 0; channel = 3 } ] in
  let expected_streams =
    [
      { AC.task = "mid"; dir = `Tx; peer_fpga = 1 }; { AC.task = "read"; dir = `Rx; peer_fpga = 1 };
    ]
  in
  check bool "faithful passes" true
    (AC.check_connectivity ~fpga:0 ~expected_bindings ~expected_streams conn = []);
  (* Re-channeled binding: missing + extra = two TCS602. *)
  let ds =
    AC.check_connectivity ~fpga:0
      ~expected_bindings:[ { AC.task = "read"; port_index = 0; channel = 4 } ]
      ~expected_streams conn
  in
  check bool "TCS602 on rebind" true (has "TCS602" ds);
  check int "missing plus extra" 2 (List.length ds);
  (* Dropped stream line. *)
  let ds = AC.check_connectivity ~fpga:0 ~expected_bindings ~expected_streams:[] conn in
  check bool "TCS602 on extra stream" true (has "TCS602" ds)

let faithful_report =
  {
    AC.fpgas = 2;
    clock_mhz = 250.0;
    cut_fifo_ids = [ 3; 5 ];
    device_clock_mhz = [ (0, 250.0); (1, 260.0) ];
    device_tasks = [ (0, [ "read"; "mid" ]); (1, [ "write" ]) ];
  }

let test_check_report () =
  check bool "faithful passes" true (AC.check_report ~expected:faithful_report faithful_report = []);
  let tampered = { faithful_report with AC.fpgas = 1; cut_fifo_ids = [ 3 ] } in
  let ds = AC.check_report ~expected:faithful_report tampered in
  check bool "TCS603 raised" true (has "TCS603" ds);
  check int "one per field" 2 (List.length ds);
  (* %.1f rounding of the clock is within tolerance, not a mismatch. *)
  let rounded = { faithful_report with AC.clock_mhz = 250.04 } in
  check bool "rounding tolerated" true (AC.check_report ~expected:faithful_report rounded = [])

let test_check_stage_balance () =
  let g = clean_graph () in
  (* In-memory pipeline: FIFO 0 crosses with 2 stages. *)
  let pipe = Tapa_cs_pipeline.Pipelining.run ~graph:g ~crossings:[ (0, 2) ] in
  let expected_insertions =
    List.map
      (fun i ->
        (i.Tapa_cs_pipeline.Pipelining.fifo_id, i.Tapa_cs_pipeline.Pipelining.stages))
      pipe.Tapa_cs_pipeline.Pipelining.insertions
  in
  let expected_total = Tapa_cs_pipeline.Pipelining.stages_of pipe in
  let faithful = { AC.pblocks = []; stage_notes = [ ("read", "mid", 2) ] } in
  check bool "faithful passes" true
    (AC.check_stage_balance ~graph:g ~fpga:0 ~expected_insertions ~expected_total faithful = []);
  (* Tampered stage count: the comment disagrees AND the re-derived
     balance no longer matches. *)
  let tampered = { AC.pblocks = []; stage_notes = [ ("read", "mid", 1) ] } in
  let ds = AC.check_stage_balance ~graph:g ~fpga:0 ~expected_insertions ~expected_total tampered in
  check bool "TCS604 raised" true (has "TCS604" ds);
  (* A comment naming a FIFO that does not exist. *)
  let ghost = { AC.pblocks = []; stage_notes = [ ("read", "mid", 2); ("x", "y", 1) ] } in
  let ds = AC.check_stage_balance ~graph:g ~fpga:0 ~expected_insertions ~expected_total ghost in
  check bool "unknown fifo flagged" true (has "TCS604" ds)

(* ------------------------------------------------------------------ *)
(* Registry exhaustiveness: every code must be demonstrably raisable    *)
(* and demonstrably absent on a corrected input.                        *)
(* ------------------------------------------------------------------ *)

let test_registry_exhaustive () =
  let shape_bad () =
    let b = Taskgraph.Builder.create () in
    let a = task b "read" ~mem_ports:[ read_port ] in
    let z = task b "write" ~mem_ports:[ write_port ] in
    fifo b a z;
    ignore
      (Taskgraph.Builder.add_task b ~name:"idle" ~compute:(Task.make_compute ~elems:0.0 ()) ());
    Taskgraph.Builder.build b
  in
  let pure_cycle () =
    let b = Taskgraph.Builder.create () in
    let x = task b "x" in
    let y = task b "y" in
    fifo b x y;
    fifo b y x;
    Taskgraph.Builder.build b
  in
  let spinners () =
    let b = Taskgraph.Builder.create () in
    let r = task b "read" ~mem_ports:[ read_port ] in
    let w = task b "write" ~mem_ports:[ write_port ] in
    fifo b r w;
    let x = task b "x" in
    let y = task b "y" in
    fifo b x y;
    fifo b y x;
    Taskgraph.Builder.build b
  in
  let rate_bad () =
    let b = Taskgraph.Builder.create () in
    let fast = task b "fast" ~compute:(Task.make_compute ~elems:1000.0 ~ii:1.0 ()) in
    let slow =
      task b "slow" ~compute:(Task.make_compute ~elems:1000.0 ~ii:16.0 ()) ~mem_ports:[ write_port ]
    in
    fifo b fast slow;
    Taskgraph.Builder.build b
  in
  let width_graph w () =
    let b = Taskgraph.Builder.create () in
    let a = task b "a" in
    let z = task b "z" ~mem_ports:[ write_port ] in
    fifo b a z ~width:w;
    Taskgraph.Builder.build b
  in
  let capacity_bad () =
    let b = Taskgraph.Builder.create () in
    let a = task b "big" ~resources:huge ~mem_ports:[ read_port ] in
    let z = task b "write" ~mem_ports:[ write_port ] in
    fifo b a z;
    Taskgraph.Builder.build b
  in
  let channel_bad () =
    let b = Taskgraph.Builder.create () in
    let bad = Task.mem_port ~channel:99 ~dir:Task.Read ~width_bits:32 ~bytes:4000.0 () in
    let a = task b "a" ~mem_ports:[ bad ] in
    let z = task b "z" ~mem_ports:[ write_port ] in
    fifo b a z;
    Taskgraph.Builder.build b
  in
  let ports n = List.init n (fun _ -> read_port) in
  let many_tasks_many_ports () =
    let b = Taskgraph.Builder.create () in
    let ts = List.init 5 (fun i -> task b (Printf.sprintf "t%d" i) ~mem_ports:(ports 7)) in
    (match ts with t0 :: rest -> List.iter (fun t -> fifo b t0 t) rest | [] -> ());
    Taskgraph.Builder.build b
  in
  let mega_task () =
    let b = Taskgraph.Builder.create () in
    let a = task b "mega" ~mem_ports:(ports 33) in
    let z = task b "z" ~mem_ports:[ write_port ] in
    fifo b a z;
    Taskgraph.Builder.build b
  in
  let infeasible_model () =
    let m = Ilp.Model.create () in
    let x =
      Ilp.Model.add_var m ~name:"x" ~lb:(Rat.of_int 2) ~ub:(Rat.of_int 5) Ilp.Model.Continuous
    in
    Ilp.Model.add_constraint m ~name:"cap" (lin x) Ilp.Model.Le Rat.one;
    m
  in
  let unbounded_model () =
    let m = Ilp.Model.create () in
    let x = Ilp.Model.add_var m ~name:"x" Ilp.Model.Continuous in
    Ilp.Model.set_objective m Ilp.Model.Maximize (lin x);
    m
  in
  let capped_model () =
    let m = unbounded_model () in
    Ilp.Model.add_constraint m ~name:"cap"
      (Ilp.Linear.var 0)
      Ilp.Model.Le (Rat.of_int 7);
    m
  in
  let depth_ds shortcut_depth () =
    let g = reconvergent ~shortcut_depth () in
    Static_perf.depth_diagnostics ~graph:g (Static_perf.analyze (sim_config ~fpgas:1 g))
  in
  let deep_ds () =
    let g = deep_graph () in
    Static_perf.depth_diagnostics ~graph:g (Static_perf.analyze (sim_config ~fpgas:1 g))
  in
  let interval_ds outside () =
    let s = Static_perf.bounds (sim_config (clean_graph ())) in
    let latency_s =
      if outside then (s.Static_perf.latency_upper_s *. 2.0) +. 1.0
      else (s.Static_perf.latency_lower_s +. s.Static_perf.latency_upper_s) /. 2.0
    in
    Option.to_list (Static_perf.interval_check s ~latency_s)
  in
  let fp () = AC.parse_floorplan_tcl sample_tcl in
  let conn () = AC.parse_connectivity_cfg sample_cfg in
  let stage_fixture tamper () =
    let g = clean_graph () in
    let pipe = Tapa_cs_pipeline.Pipelining.run ~graph:g ~crossings:[ (0, 2) ] in
    let expected_insertions =
      List.map
        (fun i -> (i.Tapa_cs_pipeline.Pipelining.fifo_id, i.Tapa_cs_pipeline.Pipelining.stages))
        pipe.Tapa_cs_pipeline.Pipelining.insertions
    in
    let notes = if tamper then [ ("read", "mid", 1) ] else [ ("read", "mid", 2) ] in
    AC.check_stage_balance ~graph:g ~fpga:0 ~expected_insertions
      ~expected_total:(Tapa_cs_pipeline.Pipelining.stages_of pipe)
      { AC.pblocks = []; stage_notes = notes }
  in
  let module If = Tapa_cs_floorplan.Inter_fpga in
  (* (code, positive trigger, corrected negative) — the positive must
     raise the code, the negative must not. *)
  let triggers =
    [
      ("TCS001", (fun () -> Lint.graph_shape (shape_bad ())), fun () -> Lint.graph_shape (clean_graph ()));
      ("TCS002", (fun () -> Lint.graph_shape (shape_bad ())), fun () -> Lint.graph_shape (clean_graph ()));
      ("TCS003", (fun () -> Lint.graph_shape (pure_cycle ())), fun () -> Lint.graph_shape (clean_graph ()));
      ("TCS004", (fun () -> Lint.graph_shape (pure_cycle ())), fun () -> Lint.graph_shape (clean_graph ()));
      ("TCS005", (fun () -> Lint.graph_shape (spinners ())), fun () -> Lint.graph_shape (clean_graph ()));
      ( "TCS101",
        (fun () -> Lint.deadlock (cycle_graph ~mode:Fifo.Bulk ())),
        fun () -> Lint.deadlock (clean_graph ()) );
      ( "TCS102",
        (fun () -> Lint.deadlock (cycle_graph ~mode:Fifo.Stream ())),
        fun () -> Lint.deadlock (clean_graph ()) );
      ( "TCS103",
        (fun () -> Lint.deadlock (reconvergent ~shortcut_depth:2 ())),
        fun () -> Lint.deadlock (reconvergent ~shortcut_depth:16 ()) );
      ("TCS201", (fun () -> Lint.rates (rate_bad ())), fun () -> Lint.rates (clean_graph ()));
      ( "TCS202",
        (fun () -> Lint.rates (width_graph 48 ())),
        fun () -> Lint.rates (width_graph 64 ()) );
      ("TCS301", (fun () -> capacity_of (capacity_bad ())), fun () -> capacity_of (clean_graph ()));
      ("TCS302", (fun () -> capacity_of (channel_bad ())), fun () -> capacity_of (clean_graph ()));
      ( "TCS303",
        (fun () -> capacity_of (many_tasks_many_ports ())),
        fun () -> capacity_of (clean_graph ()) );
      ( "TCS304",
        (fun () -> capacity_of (mega_task ())),
        fun () -> capacity_of (many_tasks_many_ports ()) );
      ( "TCS305",
        (fun () -> [ Lint.floorplan_error If.Infeasible ]),
        fun () -> [ Lint.floorplan_error If.Solver_timeout ] );
      ( "TCS306",
        (fun () -> [ Lint.floorplan_error (If.Over_capacity 3) ]),
        fun () -> [ Lint.floorplan_error If.Infeasible ] );
      ( "TCS307",
        (fun () -> [ Lint.floorplan_error If.Solver_timeout ]),
        fun () -> [ Lint.floorplan_error (If.Over_capacity 1) ] );
      ( "TCS308",
        (fun () ->
          match Tapa_cs_network.Fault.parse_link_spec "0:x" with
          | Error reason -> [ Lint.fault_spec_error ~flag:"--fail-link" ~spec:"0:x" ~reason ]
          | Ok _ -> []),
        fun () ->
          match Tapa_cs_network.Fault.parse_link_spec "0:1" with
          | Error reason -> [ Lint.fault_spec_error ~flag:"--fail-link" ~spec:"0:1" ~reason ]
          | Ok _ -> [] );
      ( "TCS401",
        (fun () -> Lint.ilp_model (infeasible_model ())),
        fun () -> Lint.ilp_model (capped_model ()) );
      ( "TCS402",
        (fun () -> Lint.ilp_model (unbounded_model ())),
        fun () -> Lint.ilp_model (capped_model ()) );
      ("TCS501", depth_ds 2, depth_ds 16);
      ("TCS502", deep_ds, depth_ds 16);
      ("TCS503", interval_ds true, interval_ds false);
      ( "TCS601",
        (fun () ->
          AC.check_floorplan ~fpga:0 ~expected_slots:[ ("read", "SLR1_X0") ] (fp ())),
        fun () -> AC.check_floorplan ~fpga:0 ~expected_slots:good_slots (fp ()) );
      ( "TCS602",
        (fun () ->
          AC.check_connectivity ~fpga:0
            ~expected_bindings:[ { AC.task = "read"; port_index = 0; channel = 4 } ]
            ~expected_streams:[] (conn ())),
        fun () ->
          AC.check_connectivity ~fpga:0
            ~expected_bindings:[ { AC.task = "read"; port_index = 0; channel = 3 } ]
            ~expected_streams:
              [
                { AC.task = "mid"; dir = `Tx; peer_fpga = 1 };
                { AC.task = "read"; dir = `Rx; peer_fpga = 1 };
              ]
            (conn ()) );
      ( "TCS603",
        (fun () ->
          AC.check_report ~expected:faithful_report { faithful_report with AC.fpgas = 1 }),
        fun () -> AC.check_report ~expected:faithful_report faithful_report );
      ("TCS604", stage_fixture true, stage_fixture false);
      ( "TCS701",
        (fun () -> [ Lint.admission_reject ~klass:"best-effort" ~depth:64 ~limit:48 ]),
        fun () -> [ Lint.floorplan_error If.Infeasible ] );
    ]
  in
  List.iter
    (fun (code, pos, neg) ->
      check bool (code ^ " raised by its trigger") true (has code (pos ()));
      check bool (code ^ " absent from the corrected input") true (not (has code (neg ()))))
    triggers;
  let covered = List.sort_uniq compare (List.map (fun (c, _, _) -> c) triggers) in
  let registered = List.sort compare (List.map (fun (c, _, _, _) -> c) Diagnostic.registry) in
  Alcotest.(check (list string)) "every registry code has a trigger pair" registered covered

let () =
  Alcotest.run "analysis"
    [
      ( "diagnostic",
        [
          Alcotest.test_case "registry well-formed" `Quick test_registry_well_formed;
          Alcotest.test_case "render pretty and json" `Quick test_render_pretty_and_json;
          Alcotest.test_case "sort errors first" `Quick test_sort_errors_first;
        ] );
      ( "shape",
        [
          Alcotest.test_case "clean graph clean" `Quick test_clean_graph_clean;
          Alcotest.test_case "disconnected and dead" `Quick test_disconnected_and_dead;
          Alcotest.test_case "no source/sink, unreachable" `Quick test_no_source_no_sink_unreachable;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "bulk cycle is error" `Quick test_bulk_cycle_is_error;
          Alcotest.test_case "stream cycle is warning" `Quick test_stream_cycle_is_warning;
          Alcotest.test_case "reconvergent depth" `Quick test_reconvergent_depth;
        ] );
      ( "rates",
        [
          Alcotest.test_case "rate mismatch" `Quick test_rate_mismatch;
          Alcotest.test_case "width conflict" `Quick test_width_conflict;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "resource overflow" `Quick test_capacity_overflow;
          Alcotest.test_case "channel binding" `Quick test_channel_binding;
          Alcotest.test_case "port counts" `Quick test_port_counts;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "trivially infeasible" `Quick test_ilp_trivially_infeasible;
          Alcotest.test_case "trivially unbounded" `Quick test_ilp_trivially_unbounded;
          Alcotest.test_case "named constraints" `Quick test_named_constraints;
        ] );
      ( "designs",
        [
          Alcotest.test_case "shipped apps error-clean" `Quick test_shipped_apps_error_clean;
          Alcotest.test_case "broken app flagged" `Quick test_broken_app_flagged;
        ] );
      ( "integration",
        [
          Alcotest.test_case "compile gate: over-subscribed" `Quick test_compile_gate_oversubscribed;
          Alcotest.test_case "compile gate: bulk cycle" `Quick test_compile_gate_bulk_cycle;
          Alcotest.test_case "simulator deadlock named" `Quick test_sim_deadlock_named;
        ] );
      ( "static_perf",
        [
          Alcotest.test_case "bounds contain unit designs" `Quick test_bounds_contain_unit_designs;
          Alcotest.test_case "interval check" `Quick test_interval_check;
          Alcotest.test_case "depth diagnostics" `Quick test_depth_diagnostics;
          Alcotest.test_case "bounds vs analyze" `Quick test_bounds_vs_analyze;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_static_bounds_sound ] );
      ( "artifacts",
        [
          Alcotest.test_case "parse floorplan tcl" `Quick test_parse_floorplan;
          Alcotest.test_case "parse connectivity cfg" `Quick test_parse_connectivity;
          Alcotest.test_case "parse design report" `Quick test_parse_report;
          Alcotest.test_case "check floorplan" `Quick test_check_floorplan;
          Alcotest.test_case "check connectivity" `Quick test_check_connectivity;
          Alcotest.test_case "check report" `Quick test_check_report;
          Alcotest.test_case "check stage balance" `Quick test_check_stage_balance;
        ] );
      ( "registry",
        [ Alcotest.test_case "exhaustive trigger coverage" `Quick test_registry_exhaustive ] );
    ]
