(* CI gate for the hierarchical + portfolio floorplan solver.

   Three properties:

   1. Determinism (hard): the grouped decomposition — cluster-level
      assignment, per-node portfolio races, parallel branch-and-bound,
      stitch and polish — must return the byte-identical assignment,
      cost and stats under jobs = 1 and jobs = N.  The pool is a
      wall-clock lever only; any divergence means a worker-count
      dependence leaked into an answer and fails the run outright.

   2. Scale (threshold): the 100-FPGA / 1000-task synthetic must
      floorplan within a generous wall-clock ceiling.  The pinned
      BENCH_micro.json entry tracks the actual single-digit-seconds
      number; the gate only catches order-of-magnitude regressions
      (e.g. an accidental O(n*k*E) objective recomputation sneaking
      back into the hot path).

   3. Prepared-path sanity (threshold): [Simplex.solve_prepared] on a
      pre-built template must not be slower than [Simplex.solve], which
      re-lowers the model every call.  The template exists to amortize
      the lowering, so prepared > unprepared means the prepared path
      regressed (this did happen: the phase-2 objective used to price
      the dead artificial column tail).  Measured over enough
      repetitions to drown scheduler noise, with a small margin. *)

open Tapa_cs_util
open Tapa_cs_device
open Tapa_cs_floorplan
module Ilp = Tapa_cs_ilp

(* Synthetic cluster-scale instance: [fpgas] boards grouped into server
   nodes of four, a stencil-shaped task chain with periodic skip links,
   ~10 tasks per board at comfortable utilization.  Deterministic
   (seeded), shared with the micro benchmark's pinned kernel. *)
let synthetic ~fpgas ~tasks () =
  let rng = Prng.create 41 in
  let groups = Array.init fpgas (fun f -> f / 4) in
  let dist a b = if a = b then 0 else if groups.(a) = groups.(b) then 1 else 2 in
  let areas =
    Array.init tasks (fun _ -> Resource.make ~lut:(30_000 + Prng.int rng 20_000) ())
  in
  let edges = ref [] in
  for i = tasks - 2 downto 0 do
    edges := (i, i + 1, float_of_int (32 * (1 + Prng.int rng 8))) :: !edges
  done;
  for i = tasks - 11 downto 0 do
    if i mod 10 = 0 then edges := (i, i + 10, 64.0) :: !edges
  done;
  ( {
      Partition.areas;
      edges = !edges;
      pulls = [];
      k = fpgas;
      capacities = Array.make fpgas (Resource.make ~lut:600_000 ());
      dist;
      fixed = [];
    },
    groups )

let wall_clock_ceiling_s = 30.0
let prepared_margin = 1.15
let simplex_reps = 2_000

let fail fmt = Printf.ksprintf (fun s -> Printf.printf "  FAIL %s\n" s; exit 1) fmt

let stats_equal (a : Partition.stats) (b : Partition.stats) =
  (* runtime_s is wall clock; everything else must match exactly. *)
  { a with Partition.runtime_s = 0.0 } = { b with Partition.runtime_s = 0.0 }

let run () =
  Exp_common.section "ILP gate: hierarchical floorplan determinism + scale (CI)";
  let problem, groups = synthetic ~fpgas:100 ~tasks:1000 () in
  let solve_on pool =
    Partition.reset_cache ();
    match Partition.solve ~pool ~groups problem with
    | Some r -> r
    | None -> fail "grouped solve returned no result"
  in
  let pool1 = Pool.create ~domains:0 () in
  let pooln = Pool.create () in
  let t0 = Unix.gettimeofday () in
  let r1 = solve_on pool1 in
  let t_seq = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let rn = solve_on pooln in
  let t_par = Unix.gettimeofday () -. t0 in
  Pool.shutdown pool1;
  Pool.shutdown pooln;
  if not r1.Partition.feasible then fail "jobs=1 grouped floorplan infeasible";
  if r1.Partition.assignment <> rn.Partition.assignment then
    fail "jobs=1 and jobs=N assignments differ";
  if r1.Partition.cost <> rn.Partition.cost then
    fail "jobs=1 cost %.6f <> jobs=N cost %.6f" r1.Partition.cost rn.Partition.cost;
  if not (stats_equal r1.Partition.stats rn.Partition.stats) then
    fail "jobs=1 and jobs=N solver stats differ";
  let c1 = r1.Partition.stats.Partition.counters in
  if c1.Ilp.Counters.subproblems = 0 then fail "grouped path did not decompose (subproblems = 0)";
  Printf.printf
    "  100-FPGA/1000-task: cost %.0f, %d subproblems, races %d exact / %d anneal, %d \
     broadcasts\n"
    r1.Partition.cost c1.Ilp.Counters.subproblems c1.Ilp.Counters.races_exact
    c1.Ilp.Counters.races_anneal c1.Ilp.Counters.incumbent_broadcasts;
  Printf.printf "  jobs=1 %.2fs, jobs=N %.2fs (identical results)\n" t_seq t_par;
  let t_best = Float.min t_seq t_par in
  if t_best > wall_clock_ceiling_s then
    fail "100-FPGA floorplan took %.1fs (> %.0fs ceiling)" t_best wall_clock_ceiling_s;
  (* Smaller instance whose per-node subproblems fit the exact budget:
     the portfolio race actually runs both arms, so the race counters
     must light up — and stay worker-count independent. *)
  let race_problem, race_groups = synthetic ~fpgas:12 ~tasks:30 () in
  let solve_race pool =
    Partition.reset_cache ();
    match Partition.solve ~pool ~groups:race_groups race_problem with
    | Some r -> r
    | None -> fail "race instance returned no result"
  in
  let pool1 = Pool.create ~domains:0 () in
  let pooln = Pool.create () in
  let q1 = solve_race pool1 in
  let qn = solve_race pooln in
  Pool.shutdown pool1;
  Pool.shutdown pooln;
  if q1.Partition.assignment <> qn.Partition.assignment || not (stats_equal q1.Partition.stats qn.Partition.stats)
  then fail "race instance: jobs=1 and jobs=N answers differ";
  let cq = q1.Partition.stats.Partition.counters in
  let races = cq.Ilp.Counters.races_exact + cq.Ilp.Counters.races_anneal in
  if races = 0 then fail "race instance ran no exact-vs-anneal races";
  Printf.printf "  12-FPGA race instance: %d races (%d exact / %d anneal), cost %.0f\n" races
    cq.Ilp.Counters.races_exact cq.Ilp.Counters.races_anneal q1.Partition.cost;
  (* Prepared vs unprepared simplex on the micro benchmark's 12x10 LP. *)
  let m = Ilp.Model.create () in
  let rng = Prng.create 3 in
  let vars =
    List.init 12 (fun _ -> Ilp.Model.add_var m Ilp.Model.Continuous ~ub:(Rat.of_int 10))
  in
  for _ = 1 to 10 do
    let coeffs = List.map (fun v -> (v, Rat.of_int (Prng.int_in rng 0 5))) vars in
    Ilp.Model.add_constraint m (Ilp.Linear.of_terms coeffs) Ilp.Model.Le
      (Rat.of_int (Prng.int_in rng 5 40))
  done;
  Ilp.Model.set_objective m Ilp.Model.Maximize
    (Ilp.Linear.of_terms (List.map (fun v -> (v, Rat.of_int (Prng.int_in rng 1 9))) vars));
  let prepared = Ilp.Simplex.prepare m in
  let time_reps f =
    (* best of three trials, each [simplex_reps] runs: robust to one-off
       scheduler hiccups without hiding a systematic regression *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to simplex_reps do
        ignore (f ())
      done;
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let t_prepared = time_reps (fun () -> Ilp.Simplex.solve_prepared prepared) in
  let t_unprepared = time_reps (fun () -> Ilp.Simplex.solve m) in
  Printf.printf "  simplex 12x10: prepared %.1fus, unprepared (prepare+solve) %.1fus\n"
    (1e6 *. t_prepared /. float_of_int simplex_reps)
    (1e6 *. t_unprepared /. float_of_int simplex_reps);
  if t_prepared > t_unprepared *. prepared_margin then
    fail "prepared simplex slower than unprepared (%.1fus vs %.1fus)"
      (1e6 *. t_prepared /. float_of_int simplex_reps)
      (1e6 *. t_unprepared /. float_of_int simplex_reps);
  Printf.printf "  PASS determinism, %.0fs ceiling, prepared<=unprepared\n" wall_clock_ceiling_s
