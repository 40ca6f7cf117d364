(* CI gate for the hierarchical + portfolio floorplan solver.

   Four checks:

   1. Determinism (hard): the grouped decomposition — cluster-level
      assignment, one portfolio per node (anneal, then the carved
      branch-and-bound search unless the anneal is certified), stitch
      and polish — must return the byte-identical assignment, cost and
      stats under jobs = 1 and jobs = N.  The pool only maps the
      independent per-node subproblems; any divergence means a
      worker-count dependence leaked into an answer and fails the run
      outright.

   2. Scale (threshold): the 100-FPGA / 1000-task synthetic must
      floorplan within a generous wall-clock ceiling.  The gate only
      catches order-of-magnitude regressions (e.g. an accidental
      O(n*k*E) objective recomputation sneaking back into the hot
      path); perfbench's compile_cold workload measures the real cost.
      This absolute ceiling is the one wall-clock verdict among the CI
      gates.

   3. Capacity proof (count): an exact solve of a split whose items
      cannot be packed must answer [None] from the packing search,
      before any LP, so it allocates fewer words than one heuristic
      solve of the same problem.

   4. Annealer work (count): a step of [Partition.anneal] on a fixed
      40-item, 4-part instance must allocate fewer than 8 minor words;
      scoring a move reads the flat index and builds no resource
      vector.

   5. Node LP work (count): an exact solve of a fixed 20-item two-way
      split must allocate fewer than 36,000 minor words per LP solve.
      Small rationals live unboxed in one block and float pivots touch
      only the pivot row's non-zero columns; with the boxed rationals
      the same search allocates about 52,000. *)

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

(* 21 items of 3 LUT fill 63 of the 64 LUT of two parts, but a 32-LUT
   part holds ten of them. *)
let check_capacity_proof () =
  let p =
    {
      Partition.areas = Array.make 21 (Resource.make ~lut:3 ());
      edges = List.init 20 (fun i -> (i, i + 1, 1.0));
      pulls = [];
      k = 2;
      capacities = Array.make 2 (Resource.make ~lut:32 ());
      dist = (fun a b -> abs (a - b));
      fixed = [];
    }
  in
  let words strategy =
    Partition.reset_cache ();
    let w0 = Gc.minor_words () in
    let r = Sys.opaque_identity (Partition.solve ~strategy p) in
    (r, Gc.minor_words () -. w0)
  in
  let exact, w_exact = words Partition.Exact in
  let _, w_heuristic = words Partition.Heuristic in
  if exact <> None then Gate.fail "exact solve packed the 21-item split";
  if w_exact >= w_heuristic then
    Gate.fail "capacity proof not cheap enough: %.0f words for the exact solve vs %.0f for a \
               heuristic solve" w_exact w_heuristic;
  Printf.printf "  capacity proof: exact None in %.0f words vs %.0f for a heuristic solve\n"
    w_exact w_heuristic

let anneal_words_bound = 8.0

(* 40 items in 4 parts at 1.1x an even share: a chain with skip links,
   started round-robin, so the walk scores both feasible and
   overflowing moves. *)
let check_anneal_words () =
  let rng = Prng.create 5 in
  let n = 40 and k = 4 in
  let areas = Array.init n (fun _ -> Resource.make ~lut:(1_000 + Prng.int rng 4_000) ~ff:500 ()) in
  let share = Resource.scale (1.1 /. float_of_int k) (Resource.sum (Array.to_list areas)) in
  let p =
    {
      Partition.areas;
      edges =
        List.init (n - 1) (fun i -> (i, i + 1, 512.0))
        @ List.init (n - 5) (fun i -> (i, i + 5, 64.0 *. float_of_int (1 + Prng.int rng 4)));
      pulls = [ (0, 0, 32.5); (n - 1, k - 1, 32.5) ];
      k;
      capacities = Array.make k share;
      dist = (fun a b -> abs (a - b));
      fixed = [];
    }
  in
  let iters = 200_000 in
  let w0 = Gc.minor_words () in
  let r = Sys.opaque_identity (Partition.anneal p ~seed:3 ~iters (Array.init n (fun i -> i mod k))) in
  let per_step = (Gc.minor_words () -. w0) /. float_of_int iters in
  if r = None then Gate.fail "the 40-item anneal found no feasible assignment";
  if per_step >= anneal_words_bound then
    Gate.fail "annealer allocates %.1f words a step (bound %.0f)" per_step anneal_words_bound;
  Printf.printf "  annealer: %.2f words a step over %d steps (bound %.0f)\n" per_step iters
    anneal_words_bound

let lp_words_bound = 36_000.0

(* A split shaped like an intra-FPGA bisection: a chain of 20 tasks of
   three kinds with skip links, HBM pulls on both ends and an I/O pull
   in the middle, and parts 2 % above an even share.  Its root LP bound
   is below every feasible cost, so the search branches for hundreds of
   nodes. *)
let check_lp_words () =
  let rng = Prng.create 1 in
  let n = 20 in
  let kinds =
    [|
      Resource.make ~lut:4_000 ~ff:6_000 ~bram:4 ();
      Resource.make ~lut:9_000 ~ff:12_000 ~dsp:24 ();
      Resource.make ~lut:3_000 ~ff:5_000 ~bram:8 ();
    |]
  in
  let areas = Array.init n (fun i -> if i = 0 || i = n - 1 then kinds.(0) else kinds.(1 + Prng.int rng 2)) in
  let half = Resource.scale (1.02 /. 2.0) (Resource.sum (Array.to_list areas)) in
  let p =
    {
      Partition.areas;
      edges =
        List.init (n - 1) (fun i -> (i, i + 1, 512.0))
        @ List.init (n - 3) (fun i -> (i, i + 3, float_of_int (64 * (1 + Prng.int rng 4))));
      pulls = [ (0, 0, 512.0); (n - 1, 0, 512.0); (n / 2, 1, 256.0) ];
      k = 2;
      capacities = [| half; half |];
      dist = (fun a b -> abs (a - b));
      fixed = [];
    }
  in
  Partition.reset_cache ();
  let w0 = Gc.minor_words () in
  let r = Sys.opaque_identity (Partition.solve ~strategy:Partition.Exact p) in
  let words = Gc.minor_words () -. w0 in
  let c =
    match r with
    | Some r -> r.Partition.stats.Partition.counters
    | None -> Gate.fail "the 20-item split found no feasible assignment"
  in
  let solves = c.Ilp.Counters.lp_solves in
  if solves < 100 then Gate.fail "the 20-item split ran only %d LP solves" solves;
  let per_lp = words /. float_of_int solves in
  if per_lp >= lp_words_bound then
    Gate.fail "node LPs allocate %.0f words each (bound %.0f)" per_lp lp_words_bound;
  Printf.printf "  node LPs: %.0f words each over %d LP solves, %d nodes (bound %.0f)\n" per_lp
    solves c.Ilp.Counters.bb_nodes lp_words_bound

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
    Gate.jobs_invariant ~label:"100-FPGA grouped solve" (fun pool ->
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
     every one goes through the portfolio, so its outcome counters must
     light up — and stay worker-count independent. *)
  let q1 =
    Gate.jobs_invariant ~label:"race instance"
      (solve ~label:"race instance" (synthetic ~fpgas:12 ~tasks:30 ()))
  in
  let cq = q1.Partition.stats.Partition.counters in
  let races = cq.Ilp.Counters.races_exact + cq.Ilp.Counters.races_anneal in
  if races = 0 then Gate.fail "race instance ran no exact-vs-anneal races";
  Printf.printf "  12-FPGA race instance: %d races (%d exact / %d anneal), cost %.0f\n" races
    cq.Ilp.Counters.races_exact cq.Ilp.Counters.races_anneal q1.Partition.cost;
  check_capacity_proof ();
  check_anneal_words ();
  check_lp_words ();
  Printf.printf "  PASS determinism, %.0fs ceiling\n" wall_clock_ceiling_s
