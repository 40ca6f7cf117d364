(* Bechamel microbenchmarks of the performance-critical kernels: exact
   rational arithmetic, simplex pivoting, branch-and-bound, the heuristic
   and hierarchical partitioners, the event queue, a small simulation,
   its static bounds and a sweep.  End-to-end paths (compile, farm
   re-placement, served requests, incremental re-floorplanning) are
   measured by perfbench's compile_cold, farm_churn and serve_stream
   workloads instead. *)

open Bechamel
open Toolkit
open Tapa_cs_util
open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls
open Tapa_cs_floorplan
module Ilp = Tapa_cs_ilp

let bigint_mul =
  let a = Bigint.of_string "123456789012345678901234567890123456789" in
  let b = Bigint.of_string "987654321098765432109876543210" in
  Test.make ~name:"bigint mul (40x30 digits)" (Staged.stage (fun () -> ignore (Bigint.mul a b)))

let bigint_divmod =
  let a = Bigint.of_string "123456789012345678901234567890123456789" in
  let b = Bigint.of_string "987654321098765432109" in
  Test.make ~name:"bigint divmod" (Staged.stage (fun () -> ignore (Bigint.divmod a b)))

let rat_add =
  let a = Rat.of_ints 355 113 and b = Rat.of_ints 22 7 in
  Test.make ~name:"rat add" (Staged.stage (fun () -> ignore (Rat.add a b)))

(* A 12-var, 10-constraint LP built once and re-solved. *)
let lp_model =
  let m = Ilp.Model.create () in
  let rng = Prng.create 3 in
  let vars = List.init 12 (fun _ -> Ilp.Model.add_var m Ilp.Model.Continuous ~ub:(Rat.of_int 10)) in
  for _ = 1 to 10 do
    let coeffs = List.map (fun v -> (v, Rat.of_int (Prng.int_in rng 0 5))) vars in
    Ilp.Model.add_constraint m (Ilp.Linear.of_terms coeffs) Ilp.Model.Le (Rat.of_int (Prng.int_in rng 5 40))
  done;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linear.of_terms (List.map (fun v -> (v, Rat.of_int (Prng.int_in rng 1 9))) vars));
  m

let simplex_lp =
  Test.make ~name:"simplex 12x10 LP" (Staged.stage (fun () -> ignore (Ilp.Simplex.solve lp_model)))

(* Float-first vs exact on the same pre-prepared template: the gap is
   pure arithmetic — double pivots plus one exact certificate on the
   basis's structural block versus rational pivots throughout. *)
let lp_prepared = Ilp.Simplex.prepare lp_model

let simplex_float_first =
  Test.make ~name:"simplex 12x10 LP, float-first"
    (Staged.stage (fun () -> ignore (Ilp.Simplex.solve_float_first lp_prepared)))

let simplex_exact_prepared =
  Test.make ~name:"simplex 12x10 LP, exact prepared"
    (Staged.stage (fun () -> ignore (Ilp.Simplex.solve_prepared lp_prepared)))

let bb_ilp =
  let model =
    let m = Ilp.Model.create () in
    let rng = Prng.create 17 in
    let vars = List.init 10 (fun _ -> Ilp.Model.add_var m Ilp.Model.Binary) in
    let coeffs = List.map (fun v -> (v, Rat.of_int (Prng.int_in rng 2 9))) vars in
    Ilp.Model.add_constraint m (Ilp.Linear.of_terms coeffs) Ilp.Model.Le (Rat.of_int 25);
    Ilp.Model.set_objective m Ilp.Model.Maximize
      (Ilp.Linear.of_terms (List.map (fun v -> (v, Rat.of_int (Prng.int_in rng 1 20))) vars));
    m
  in
  Test.make ~name:"branch&bound 10-var knapsack" (Staged.stage (fun () -> ignore (Ilp.Branch_bound.solve model)))

(* Branch-and-bound on a floorplanning-shaped instance: many binaries, few
   constraints — the regime where the prepared bounded-variable tableau
   pays (no per-node rebuild, one row per constraint instead of one per
   constraint + one per binary, bound flips instead of pivots) and the
   float-first path with dual warm restarts settles most nodes. *)
let bb_floorplan_model =
  let m = Ilp.Model.create () in
  let rng = Prng.create 11 in
  let n = 24 in
  let vars = List.init n (fun _ -> Ilp.Model.add_var m Ilp.Model.Binary) in
  for _ = 1 to 2 do
    let coeffs = List.map (fun v -> (v, Rat.of_int (Prng.int_in rng 1 9))) vars in
    Ilp.Model.add_constraint m (Ilp.Linear.of_terms coeffs) Ilp.Model.Le
      (Rat.of_int (Prng.int_in rng 30 55))
  done;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linear.of_terms (List.map (fun v -> (v, Rat.of_int (Prng.int_in rng 1 20))) vars));
  m

let bb_warm =
  Test.make ~name:"B&B 24-var floorplan ILP, warm-started"
    (Staged.stage (fun () -> ignore (Ilp.Branch_bound.solve bb_floorplan_model)))

(* The flat heuristic (first fit, move refinement, multi-start) on a
   60-task instance.  The cache is reset inside the staged closure: a
   replay would time only the cache-key digest and the result copy. *)
let partition_heuristic =
  let problem =
    let rng = Prng.create 23 in
    let n = 60 in
    {
      Partition.areas = Array.init n (fun _ -> Resource.make ~lut:(10_000 + Prng.int rng 20_000) ());
      edges = List.init (2 * n) (fun _ ->
          let a = Prng.int rng n and b = Prng.int rng n in
          (min a b, (max a b + 1) mod n, float_of_int (32 * (1 + Prng.int rng 8))));
      pulls = [];
      k = 4;
      capacities = Array.make 4 (Resource.make ~lut:600_000 ());
      dist = (fun a b -> abs (a - b));
      fixed = [];
    }
  in
  Test.make ~name:"heuristic partition 60 tasks / 4 parts"
    (Staged.stage (fun () ->
         Partition.reset_cache ();
         ignore (Partition.solve ~strategy:Partition.Heuristic problem)))

(* The tentpole scale target: a cluster-sized instance through the
   hierarchical decomposition (cluster-level assignment, one portfolio
   race per node group, stitch + polish).  The cache is reset inside the
   staged closure so every run times a genuine solve, not a replay. *)
let partition_hierarchical =
  let problem, groups = Exp_ilpgate.synthetic ~fpgas:100 ~tasks:1000 () in
  Test.make ~name:"hierarchical floorplan 100-FPGA/1000-task"
    (Staged.stage (fun () ->
         Partition.reset_cache ();
         ignore (Partition.solve ~groups problem)))

(* Faulty vs ideal link transfer-time: the closed-form fault model is on
   the simulator's per-message hot path, so its overhead versus the plain
   serialization formula is worth tracking.  64 MB at 1% loss is the
   CI fault-injection scenario. *)
let xfer_bytes = 64.0 *. 1024.0 *. 1024.0

let link_ideal =
  Test.make ~name:"link transfer 64MB, ideal"
    (Staged.stage (fun () -> ignore (Tapa_cs_network.Link.transfer_time_s Tapa_cs_network.Link.alveolink xfer_bytes)))

let link_faulty =
  let fault = Tapa_cs_network.Fault.lossy 0.01 in
  Test.make ~name:"link transfer 64MB, 1% loss (closed form)"
    (Staged.stage (fun () ->
         ignore (Tapa_cs_network.Fault.transfer_time_s ~fault Tapa_cs_network.Link.alveolink xfer_bytes)))

(* The 4-ary heap behind the simulator's event queue and the B&B
   frontier. *)
let event_fourheap =
  Test.make ~name:"event 4-ary heap push/pop x1000"
    (Staged.stage (fun () ->
         let h = Fourheap.create ~cmp:Int.compare in
         for i = 999 downto 0 do
           Fourheap.push h ((i * 7919) mod 1000)
         done;
         while not (Fourheap.is_empty h) do
           ignore (Fourheap.pop h)
         done))

let small_sim_config =
  let b = Taskgraph.Builder.create () in
  let ids =
    List.init 8 (fun i ->
        Taskgraph.Builder.add_task b ~name:(Printf.sprintf "t%d" i)
          ~compute:(Task.make_compute ~elems:1e5 ~ii:1.0 ())
          ())
  in
  let rec link = function
    | a :: (c :: _ as rest) ->
      ignore (Taskgraph.Builder.add_fifo b ~src:a ~dst:c ~elems:1e5 ());
      link rest
    | _ -> ()
  in
  link ids;
  let g = Taskgraph.Builder.build b in
  let board = Board.u55c () in
  let cluster = Cluster.make ~board:(fun () -> board) 1 in
  let synthesis = Synthesis.run ~board g in
  Tapa_cs_sim.Design_sim.make_config ~graph:g ~assignment:(Array.make 8 0)
    ~freq_mhz:[| 300.0 |] ~cluster ~synthesis ()

(* The engine benches bypass the result cache — they time the simulator,
   not a hash lookup.  The pinned "8-task pipeline simulation" name is
   the coalesced engine (the default); the ", reference" variant prices
   the coalescing + inline-wake + two-tier-queue win on the same design,
   and ", cache warm" is what repeated sweep points actually pay. *)
let small_sim =
  Test.make ~name:"8-task pipeline simulation"
    (Staged.stage (fun () -> ignore (Tapa_cs_sim.Design_sim.run ~cache:false small_sim_config)))

let small_sim_reference =
  Test.make ~name:"8-task pipeline simulation, reference"
    (Staged.stage (fun () ->
         ignore (Tapa_cs_sim.Design_sim.run_reference ~cache:false small_sim_config)))

let small_sim_cached =
  Test.make ~name:"8-task pipeline simulation, cache warm"
    (Staged.stage (fun () -> ignore (Tapa_cs_sim.Design_sim.run small_sim_config)))

(* The closed-form bounds on the same design the sim benches run.
   Screening a sweep point statically must be far cheaper than looking
   its simulation up; [analyzegate] pins that as an allocation bound
   (at least 4x fewer words than a cache-warm sim). *)
let static_bounds_bench =
  Test.make ~name:"8-task pipeline static bounds"
    (Staged.stage (fun () -> ignore (Tapa_cs_analysis.Static_perf.bounds small_sim_config)))

(* Sweep harness over four independent points (the pipeline at different
   chunk granularities), cache off so every run simulates.  jobs=4 is
   skipped on single-core hosts, where extra domains only time-slice;
   the jobs=1 entry keeps the trajectory comparable everywhere. *)
let sweep_jobs_arr =
  Array.map
    (fun chunks ->
      Tapa_cs_sim.Sim_sweep.job
        ~label:(Printf.sprintf "chunks=%d" chunks)
        { small_sim_config with Tapa_cs_sim.Design_sim.chunks })
    [| 16; 32; 64; 128 |]

let sim_sweep_seq =
  Test.make ~name:"sim sweep 4 points, jobs=1"
    (Staged.stage (fun () ->
         ignore (Tapa_cs_sim.Sim_sweep.run ~jobs:1 ~cache:false sweep_jobs_arr)))

let sim_sweep_par =
  if Pool.default_jobs () < 2 then None
  else
    Some
      (Test.make ~name:"sim sweep 4 points, jobs=4"
         (Staged.stage (fun () ->
              ignore (Tapa_cs_sim.Sim_sweep.run ~jobs:4 ~cache:false sweep_jobs_arr))))

let tests =
  Test.make_grouped ~name:"kernels"
    ([
       bigint_mul; bigint_divmod; rat_add; simplex_lp; simplex_float_first;
       simplex_exact_prepared; bb_ilp; bb_warm; partition_heuristic; partition_hierarchical;
       link_ideal; link_faulty; event_fourheap; small_sim; small_sim_reference; small_sim_cached;
       static_bounds_bench; sim_sweep_seq;
     ]
    @ Option.to_list sim_sweep_par)

(* Machine-readable perf trajectory: name -> ns/run, written next to the
   repo's other BENCH_*.json artifacts so successive PRs can be compared
   mechanically.  [dune exec bench/main.exe -- micro] runs from the
   project root, which is where the file lands. *)
let json_path = "BENCH_micro.json"

let write_json entries =
  let oc = open_out json_path in
  output_string oc "{\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "  %S: %.2f%s\n" name ns (if i = List.length entries - 1 then "" else ","))
    entries;
  output_string oc "}\n";
  close_out oc

let run () =
  Exp_common.section "Microbenchmarks (Bechamel, monotonic clock)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let results = Analyze.merge ols instances results in
  let entries = ref [] in
  Hashtbl.iter
    (fun measure per_test ->
      if measure = Measure.label Instance.monotonic_clock then
        Hashtbl.iter
          (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] ->
              entries := (name, est) :: !entries;
              let v, unit_ =
                if est > 1e9 then (est /. 1e9, "s")
                else if est > 1e6 then (est /. 1e6, "ms")
                else if est > 1e3 then (est /. 1e3, "us")
                else (est, "ns")
              in
              Printf.printf "  %-42s %8.2f %s/run\n" name v unit_
            | _ -> Printf.printf "  %-42s (no estimate)\n" name)
          per_test)
    results;
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) !entries in
  write_json entries;
  Printf.printf "  [ns/run table written to %s]\n" json_path
