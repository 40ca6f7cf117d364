(* CI gate for the hierarchical + portfolio floorplan solver.

   Two properties:

   1. Determinism (hard): the grouped decomposition — cluster-level
      assignment, per-node portfolio races, parallel branch-and-bound,
      stitch and polish — must return the byte-identical assignment,
      cost and stats under jobs = 1 and jobs = N.  The pool is a
      wall-clock lever only; any divergence means a worker-count
      dependence leaked into an answer and fails the run outright.

   2. Scale (threshold): the 100-FPGA / 1000-task synthetic must
      floorplan within a generous wall-clock ceiling.  The gate only
      catches order-of-magnitude regressions (e.g. an accidental
      O(n*k*E) objective recomputation sneaking back into the hot
      path); perfbench's compile_cold workload measures the real cost.
      This absolute ceiling is the one wall-clock verdict among the CI
      gates. *)

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

let run () =
  Exp_common.section "ILP gate: hierarchical floorplan determinism + scale (CI)";
  let solve ~label (problem, groups) pool =
    Partition.reset_cache ();
    match Partition.solve ~pool ~groups problem with
    | Some r -> r
    | None -> Gate.fail "%s returned no result" label
  in
  let times = ref [] in
  let big = synthetic ~fpgas:100 ~tasks:1000 () in
  let r1 =
    Gate.jobs_invariant ~label:"100-FPGA grouped solve" ~same:Gate.same_solve (fun pool ->
        let r, t = Gate.timed (fun () -> solve ~label:"grouped solve" big pool) in
        times := t :: !times;
        r)
  in
  if not r1.Partition.feasible then Gate.fail "jobs=1 grouped floorplan infeasible";
  let c1 = r1.Partition.stats.Partition.counters in
  if c1.Ilp.Counters.subproblems = 0 then Gate.fail "grouped path did not decompose (subproblems = 0)";
  Printf.printf
    "  100-FPGA/1000-task: cost %.0f, %d subproblems, races %d exact / %d anneal, %d \
     broadcasts\n"
    r1.Partition.cost c1.Ilp.Counters.subproblems c1.Ilp.Counters.races_exact
    c1.Ilp.Counters.races_anneal c1.Ilp.Counters.incumbent_broadcasts;
  let t_best = List.fold_left Float.min infinity !times in
  Printf.printf "  jobs=1, jobs=N: %s (identical results)\n"
    (String.concat ", " (List.rev_map (Printf.sprintf "%.2fs") !times));
  if t_best > wall_clock_ceiling_s then
    Gate.fail "100-FPGA floorplan took %.1fs (> %.0fs ceiling)" t_best wall_clock_ceiling_s;
  (* Smaller instance whose per-node subproblems fit the exact budget:
     the portfolio race actually runs both arms, so the race counters
     must light up — and stay worker-count independent. *)
  let q1 =
    Gate.jobs_invariant ~label:"race instance" ~same:Gate.same_solve
      (solve ~label:"race instance" (synthetic ~fpgas:12 ~tasks:30 ()))
  in
  let cq = q1.Partition.stats.Partition.counters in
  let races = cq.Ilp.Counters.races_exact + cq.Ilp.Counters.races_anneal in
  if races = 0 then Gate.fail "race instance ran no exact-vs-anneal races";
  Printf.printf "  12-FPGA race instance: %d races (%d exact / %d anneal), cost %.0f\n" races
    cq.Ilp.Counters.races_exact cq.Ilp.Counters.races_anneal q1.Partition.cost;
  Printf.printf "  PASS determinism, %.0fs ceiling\n" wall_clock_ceiling_s
