(* Tests for the partitioner and both floorplanning levels. *)

open Tapa_cs_util
open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls
open Tapa_cs_floorplan

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let res lut = Resource.make ~lut ()
let caps k lut = Array.make k (res lut)

let simple_problem ?(k = 2) ?(cap = 100) ?(edges = []) ?(pulls = []) ?(fixed = []) areas =
  {
    Partition.areas = Array.of_list (List.map res areas);
    edges;
    pulls;
    k;
    capacities = caps k cap;
    dist = (fun a b -> abs (a - b));
    fixed;
  }

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)
(* ------------------------------------------------------------------ *)

let test_partition_respects_capacity () =
  (* 4 items of 40: at most two share a part of 100, so a 2-2 split. *)
  let p = simple_problem ~cap:100 [ 40; 40; 40; 40 ] in
  match Partition.solve p with
  | Some r ->
    check bool "feasible" true r.Partition.feasible;
    let on0 = Array.fold_left (fun acc x -> if x = 0 then acc + 1 else acc) 0 r.assignment in
    check int "balanced 2-2" 2 on0
  | None -> Alcotest.fail "expected a solution"

let test_partition_infeasible () =
  let p = simple_problem ~cap:50 [ 60 ] in
  check bool "oversized item rejected" true (Partition.solve p = None)

(* A NaN weight would leave first fit with no part whose key beats the
   initial infinity, so every backend rejects non-finite weights up
   front. *)
let test_partition_non_finite_weights () =
  let raises label msg p =
    List.iter
      (fun (backend, solve) ->
        Alcotest.check_raises (label ^ " (" ^ backend ^ ")") (Invalid_argument msg) (fun () ->
            ignore (solve p)))
      [
        ("heuristic", fun p -> Partition.solve ~strategy:Partition.Heuristic p);
        ("auto", fun p -> Partition.solve p);
        ("greedy", Partition.greedy);
      ]
  in
  let edges = [ (0, 1, 1.0); (1, 2, Float.nan); (2, 3, 1.0) ] in
  raises "NaN edge weight" "Partition: non-finite edge weight"
    (simple_problem ~cap:100 ~edges [ 40; 40; 40; 40 ]);
  raises "infinite edge weight" "Partition: non-finite edge weight"
    (simple_problem ~cap:100 ~edges:[ (0, 1, Float.infinity) ] [ 40; 40; 40; 40 ]);
  raises "NaN pull weight" "Partition: non-finite pull weight"
    (simple_problem ~cap:100 ~pulls:[ (0, 1, Float.nan) ] [ 40; 40; 40; 40 ]);
  raises "infinite pull weight" "Partition: non-finite pull weight"
    (simple_problem ~cap:100 ~pulls:[ (3, 0, Float.neg_infinity) ] [ 40; 40; 40; 40 ])

let test_partition_min_cut () =
  (* chain a-b-c-d with a heavy middle edge: optimal cut avoids it. *)
  let edges = [ (0, 1, 1.0); (1, 2, 100.0); (2, 3, 1.0) ] in
  let p = simple_problem ~cap:110 ~edges [ 50; 50; 50; 50 ] in
  match Partition.solve ~strategy:Partition.Exact p with
  | Some r ->
    check bool "1 and 2 colocated" true (r.assignment.(1) = r.assignment.(2));
    check (Alcotest.float 1e-9) "cost avoids heavy edge" 2.0 r.cost;
    check bool "proven optimal" true r.stats.proven_optimal
  | None -> Alcotest.fail "expected a solution"

let test_partition_fixed_respected () =
  let p = simple_problem ~cap:200 ~fixed:[ (0, 1); (3, 0) ] [ 10; 10; 10; 10 ] in
  match Partition.solve p with
  | Some r ->
    check int "item 0 pinned" 1 r.assignment.(0);
    check int "item 3 pinned" 0 r.assignment.(3)
  | None -> Alcotest.fail "expected a solution"

let test_partition_pulls_attract () =
  (* A single item pulled toward part 1 must land there. *)
  let p = simple_problem ~cap:100 ~pulls:[ (0, 1, 5.0) ] [ 10 ] in
  match Partition.solve p with
  | Some r -> check int "pull honored" 1 r.assignment.(0)
  | None -> Alcotest.fail "expected a solution"

let test_partition_k1 () =
  let p = simple_problem ~k:1 ~cap:100 [ 40; 40 ] in
  (match Partition.solve p with
  | Some r -> check bool "all on part 0" true (Array.for_all (( = ) 0) r.assignment)
  | None -> Alcotest.fail "k=1 should fit");
  let p = simple_problem ~k:1 ~cap:50 [ 40; 40 ] in
  check bool "k=1 over capacity" true (Partition.solve p = None)

let test_partition_k4_chain () =
  (* 8-item chain over 4 parts: contiguous split, cost = 3 cut edges. *)
  let edges = List.init 7 (fun i -> (i, i + 1, 1.0)) in
  let p = simple_problem ~k:4 ~cap:25 ~edges [ 10; 10; 10; 10; 10; 10; 10; 10 ] in
  match Partition.solve p with
  | Some r ->
    check bool "feasible" true r.feasible;
    check bool "cost is 3 (contiguous pairs)" true (r.cost <= 3.0 +. 1e-9)
  | None -> Alcotest.fail "expected a solution"

let test_exact_matches_brute_force () =
  (* Random small instances: exact must equal exhaustive search. *)
  let rng = Partition.prng_for_tests 99 in
  for _ = 1 to 25 do
    let n = 2 + Prng.int rng 5 in
    let areas = List.init n (fun _ -> 10 + Prng.int rng 30) in
    let nedges = Prng.int rng 6 in
    let edges =
      List.init nedges (fun _ ->
          let a = Prng.int rng n and b = Prng.int rng n in
          if a = b then None else Some (min a b, max a b, float_of_int (1 + Prng.int rng 9)))
      |> List.filter_map Fun.id
    in
    let cap = 60 + Prng.int rng 60 in
    let p = simple_problem ~cap ~edges areas in
    let brute =
      let best = ref None in
      for mask = 0 to (1 lsl n) - 1 do
        let assignment = Array.init n (fun i -> (mask lsr i) land 1) in
        if Partition.feasible_assignment p assignment then begin
          let c = Partition.cost_of p assignment in
          match !best with Some b when b <= c -> () | _ -> best := Some c
        end
      done;
      !best
    in
    match (Partition.solve ~strategy:Partition.Exact p, brute) with
    | Some r, Some b ->
      if not (Float.abs (r.cost -. b) < 1e-6) then
        Alcotest.failf "exact %f <> brute %f" r.cost b
    | None, None -> ()
    | Some _, None -> Alcotest.fail "solver found a solution brute force missed"
    | None, Some _ -> Alcotest.fail "solver missed a feasible solution"
  done

let test_heuristic_always_feasible_when_returned =
 fun () ->
  let rng = Partition.prng_for_tests 7 in
  for _ = 1 to 30 do
    let n = 2 + Prng.int rng 20 in
    let k = 2 + Prng.int rng 3 in
    let areas = List.init n (fun _ -> 5 + Prng.int rng 20) in
    let edges =
      List.init (Prng.int rng 30) (fun _ ->
          let a = Prng.int rng n and b = Prng.int rng n in
          if a = b then None else Some (a, b, float_of_int (1 + Prng.int rng 5)))
      |> List.filter_map Fun.id
    in
    let total = List.fold_left ( + ) 0 areas in
    let cap = (total / k) + 30 in
    let p = simple_problem ~k ~cap ~edges areas in
    match Partition.solve ~strategy:Partition.Heuristic p with
    | Some r -> check bool "returned solutions are feasible" true r.feasible
    | None -> ()
  done

(* Decision golden: what the heuristics decide, pinned line by line.
   The corpus is shaped so that every part of the working objective
   decides some answers: k from 2 to 12, pins, pulls with half-integer
   weights, 512-bit-scale edge weights (a third of them divided by 3, so
   float sums round) and capacities of 0.95-1.25x an even share, so
   first-fit starts overflow and the penalty has to repair them.  The
   golden file holds the decisions of the earlier two-module heuristics
   (refinement re-summing the whole objective, a separate annealer): a
   drift is a changed decision, not a file to regenerate. *)
let decision_problem rng =
  let k = 2 + Prng.int rng 11 in
  let n = (2 * k) + Prng.int rng (k + 2) in
  let areas =
    Array.init n (fun _ ->
        let lut = 1_000 + Prng.int rng 4_000 in
        Resource.make ~lut ~ff:((lut / 2) + Prng.int rng 500) ())
  in
  let share = Resource.scale (1.0 /. float_of_int k) (Resource.sum (Array.to_list areas)) in
  (* identical parts in half the problems, so first fit meets ties *)
  let uniform = Prng.bool rng in
  let f = 0.95 +. Prng.float rng 0.30 in
  let capacities =
    Array.init k (fun _ ->
        Resource.scale (if uniform then f else 0.95 +. Prng.float rng 0.30) share)
  in
  let weight () =
    let w = 512.0 *. float_of_int (1 + Prng.int rng 4) in
    if Prng.int rng 3 = 0 then w /. 3.0 else w
  in
  let edges =
    List.filter_map Fun.id
      (List.init (n + Prng.int rng n) (fun _ ->
           let a = Prng.int rng n and b = Prng.int rng n in
           if a = b then None else Some (a, b, weight ())))
  in
  let pulls =
    List.init (Prng.int rng 4) (fun _ ->
        (Prng.int rng n, Prng.int rng k, 0.5 *. float_of_int (1 + Prng.int rng 40)))
  in
  let items = Array.init n Fun.id in
  Prng.shuffle rng items;
  let fixed = List.init (Prng.int rng 3) (fun j -> (items.(j), Prng.int rng k)) in
  let dist =
    if Prng.bool rng then fun a b -> abs (a - b)
    else fun a b -> abs ((a / 3) - (b / 3)) + abs ((a mod 3) - (b mod 3))
  in
  { Partition.areas; edges; pulls; k; capacities; dist; fixed }

(* A chain across 12 parts in 3 groups of 4 (server nodes): the grouped
   decomposition's cluster chunking, portfolio subproblems and boundary
   polish.  Dense random grouped instances take minutes; chains do
   not. *)
let decision_chain rng =
  let n = 12 + Prng.int rng 2 in
  let areas = Array.init n (fun _ -> Resource.make ~lut:(1_000 + Prng.int rng 3_000) ()) in
  let share = Resource.scale (1.0 /. 12.0) (Resource.sum (Array.to_list areas)) in
  let capacities = Array.init 12 (fun _ -> Resource.scale (1.3 +. Prng.float rng 0.4) share) in
  let edges =
    List.init (n - 1) (fun i ->
        let w = 512.0 *. float_of_int (1 + Prng.int rng 4) in
        (i, i + 1, if i mod 3 = 0 then w /. 3.0 else w))
  in
  let pulls = [ (0, 0, 64.5); (n - 1, 11, 64.5) ] in
  let group q = q / 4 in
  let dist a b = if a = b then 0 else if group a = group b then 1 else 3 in
  { Partition.areas; edges; pulls; k = 12; capacities; dist; fixed = [] }

let decision_line tag = function
  | None -> tag ^ " none"
  | Some (r : Partition.result) ->
    let c = r.stats.counters in
    Printf.sprintf "%s a=%s cost=%h feasible=%b proven=%b backend=%s %s" tag
      (String.concat "," (Array.to_list (Array.map string_of_int r.assignment)))
      r.cost r.feasible r.stats.proven_optimal
      (match r.stats.backend with
      | `Exact -> "exact"
      | `Heuristic -> "heuristic"
      | `Greedy -> "greedy")
      (String.concat " "
         (List.map
            (fun (f : Tapa_cs_ilp.Counters.field) -> Printf.sprintf "%s=%d" f.key (f.get c))
            Tapa_cs_ilp.Counters.fields))

let test_partition_decision_golden () =
  Partition.reset_cache ();
  let rng = Prng.create 2024 in
  let lines = ref [] in
  let emit l = lines := l :: !lines in
  for i = 1 to 24 do
    let p = decision_problem rng in
    let tag call = Printf.sprintf "p%02d k=%d n=%d %s" i p.k (Partition.num_items p) call in
    emit (decision_line (tag "heuristic") (Partition.solve ~strategy:Partition.Heuristic p));
    emit (decision_line (tag "auto") (Partition.solve p));
    emit (decision_line (tag "greedy") (Partition.greedy p))
  done;
  let groups = Array.init 12 (fun q -> q / 4) in
  for i = 1 to 2 do
    let p = decision_chain rng in
    let tag = Printf.sprintf "g%d k=12 n=%d grouped" i (Partition.num_items p) in
    emit (decision_line tag (Partition.solve ~groups p))
  done;
  Golden_file.check "partition_decisions.expected"
    (String.concat "\n" (List.rev !lines) ^ "\n")

(* ------------------------------------------------------------------ *)
(* Inter-FPGA floorplanning                                            *)
(* ------------------------------------------------------------------ *)

let big_task_graph ~tasks ~lut =
  let b = Taskgraph.Builder.create () in
  let ids =
    List.init tasks (fun i ->
        Taskgraph.Builder.add_task b ~name:(Printf.sprintf "t%d" i)
          ~resources:(Resource.make ~lut ()) ())
  in
  let rec link = function
    | a :: (c :: _ as rest) ->
      ignore (Taskgraph.Builder.add_fifo b ~src:a ~dst:c ~width_bits:64 ~elems:1e6 ());
      link rest
    | _ -> ()
  in
  link ids;
  Taskgraph.Builder.build b

let test_inter_fpga_spreads_when_needed () =
  (* 8 tasks x 300k LUT = 2.4M > one U55C: needs 4 FPGAs at T=0.7. *)
  let g = big_task_graph ~tasks:8 ~lut:300_000 in
  let synthesis = Synthesis.run g in
  let cluster = Cluster.make ~board:Board.u55c 4 in
  match Inter_fpga.run ~cluster ~synthesis g with
  | Ok r ->
    let used = Array.to_list r.Inter_fpga.assignment |> List.sort_uniq compare in
    check bool "uses several FPGAs" true (List.length used >= 3);
    check bool "chain cut minimal" true (List.length r.Inter_fpga.cut_fifos <= 3);
    check bool "under threshold everywhere" true
      (Array.for_all (fun u -> u <= 0.71) r.Inter_fpga.per_fpga_util)
  | Error e -> Alcotest.failf "unexpected failure: %s" (Inter_fpga.error_message e)

let test_inter_fpga_single_fpga_failure () =
  let g = big_task_graph ~tasks:8 ~lut:300_000 in
  let synthesis = Synthesis.run g in
  let cluster = Cluster.make ~board:Board.u55c 1 in
  match Inter_fpga.run ~cluster ~synthesis g with
  | Ok _ -> Alcotest.fail "2.4M LUTs cannot fit one U55C"
  | Error _ -> ()

let test_inter_fpga_networking_overhead_charged () =
  (* A single 780k-LUT task fits the bare 70 % budget (802k) but not the
     budget after two AlveoLink ports are charged (755k): adding devices
     must push this design off the happy path, proving the overhead is
     accounted.  (The graceful-degradation chain may still rescue it at a
     relaxed threshold — but only by firing a fallback rung.) *)
  let g = big_task_graph ~tasks:1 ~lut:780_000 in
  let synthesis = Synthesis.run g in
  let one = Cluster.make ~board:Board.u55c 1 in
  (match Inter_fpga.run ~cluster:one ~synthesis g with
  | Ok r ->
    check int "single fpga ok" 0 r.Inter_fpga.assignment.(0);
    check (Alcotest.list Alcotest.string) "no fallback on one device" [] r.Inter_fpga.fallbacks
  | Error e -> Alcotest.failf "single: %s" (Inter_fpga.error_message e));
  let two = Cluster.make ~board:Board.u55c 2 in
  match Inter_fpga.run ~cluster:two ~synthesis g with
  | Ok r ->
    check bool "802k budget minus 2 ports hosts 780k only via a fallback" true
      (r.Inter_fpga.fallbacks <> [])
  | Error _ -> ()

let test_inter_fpga_traffic_weighted_by_hops () =
  let g = big_task_graph ~tasks:4 ~lut:10_000 in
  let synthesis = Synthesis.run g in
  let cluster = Cluster.make ~board:Board.u55c 2 in
  match Inter_fpga.run ~cluster ~synthesis g with
  | Ok r ->
    let manual =
      List.fold_left (fun acc f -> acc +. Fifo.traffic_bytes f) 0.0 r.Inter_fpga.cut_fifos
    in
    (* ring of 2: every hop distance is 1 *)
    check (Alcotest.float 1.0) "traffic accounting" manual r.Inter_fpga.traffic_bytes
  | Error e -> Alcotest.failf "unexpected: %s" (Inter_fpga.error_message e)

(* ------------------------------------------------------------------ *)
(* Greedy fallback and degraded-cluster refloorplanning (tentpole)      *)
(* ------------------------------------------------------------------ *)

let test_partition_greedy_packs () =
  (* First-fit decreasing: feasible whenever the bins can hold the load. *)
  let p = simple_problem ~cap:100 [ 60; 60; 40; 40 ] in
  (match Partition.greedy p with
  | Some r ->
    check bool "greedy feasible" true r.Partition.feasible;
    check bool "greedy tagged" true (r.Partition.stats.backend = `Greedy)
  | None -> Alcotest.fail "greedy must pack 2x(60+40)");
  (* Oversized item: greedy returns an (infeasible) best effort, never
     crashes. *)
  let p = simple_problem ~cap:50 [ 60 ] in
  (match Partition.greedy p with
  | Some r -> check bool "over-capacity marked infeasible" false r.Partition.feasible
  | None -> Alcotest.fail "greedy still returns its best effort");
  (* Pinned items stay pinned. *)
  let p = simple_problem ~cap:100 ~fixed:[ (0, 1) ] [ 10; 10 ] in
  match Partition.greedy p with
  | Some r -> check int "fixed respected" 1 r.Partition.assignment.(0)
  | None -> Alcotest.fail "expected a packing"

let test_error_codes_match_linter_registry () =
  List.iter
    (fun (e, code) ->
      check Alcotest.string "TCS code" code (Inter_fpga.error_code e);
      check bool "registered diagnostic" true
        (List.exists
           (fun (c, _, _, _) -> c = code)
           Tapa_cs_analysis.Diagnostic.registry))
    [
      (Inter_fpga.Infeasible, "TCS305");
      (Inter_fpga.Over_capacity 2, "TCS306");
      (Inter_fpga.Solver_timeout, "TCS307");
    ]

let degraded_fixture () =
  (* 6 x 300k LUT needs three U55Cs at T=0.7; a 4-FPGA ring has one to
     spare. *)
  let g = big_task_graph ~tasks:6 ~lut:300_000 in
  let synthesis = Synthesis.run g in
  let cluster = Cluster.make ~board:Board.u55c 4 in
  (g, synthesis, cluster)

let test_run_degraded_avoids_failed_device () =
  let g, synthesis, cluster = degraded_fixture () in
  match Inter_fpga.run_degraded ~failed_devices:[ 2 ] ~cluster ~synthesis g with
  | Ok r ->
    check bool "no task on the dead device" true
      (Array.for_all (fun f -> f <> 2) r.Inter_fpga.assignment);
    check bool "degraded tag recorded" true
      (List.exists
         (fun t -> String.length t >= 8 && String.sub t 0 8 = "degraded")
         r.Inter_fpga.fallbacks)
  | Error e -> Alcotest.failf "degraded solve failed: %s" (Inter_fpga.error_message e)

let test_run_degraded_survives_downed_link () =
  let g, synthesis, cluster = degraded_fixture () in
  match Inter_fpga.run_degraded ~failed_links:[ (0, 1) ] ~cluster ~synthesis g with
  | Ok r ->
    check bool "degraded tag mentions the link" true
      (List.exists
         (fun t -> String.length t >= 8 && String.sub t 0 8 = "degraded")
         r.Inter_fpga.fallbacks);
    (* The mapping is still a valid full-cluster assignment. *)
    check bool "assignment in range" true
      (Array.for_all (fun f -> f >= 0 && f < 4) r.Inter_fpga.assignment)
  | Error e -> Alcotest.failf "downed link failed: %s" (Inter_fpga.error_message e)

let test_run_degraded_deterministic () =
  let g, synthesis, cluster = degraded_fixture () in
  let solve () =
    match Inter_fpga.run_degraded ~seed:3 ~failed_devices:[ 1 ] ~cluster ~synthesis g with
    | Ok r -> r.Inter_fpga.assignment
    | Error e -> Alcotest.failf "unexpected: %s" (Inter_fpga.error_message e)
  in
  check bool "same seed, same degraded mapping" true (solve () = solve ())

let test_run_degraded_edge_cases () =
  let g, synthesis, cluster = degraded_fixture () in
  (* Nothing failed: exactly the healthy path. *)
  (match
     ( Inter_fpga.run_degraded ~cluster ~synthesis g,
       Inter_fpga.run ~cluster ~synthesis g )
   with
  | Ok a, Ok b ->
    check bool "healthy degraded = run" true
      (a.Inter_fpga.assignment = b.Inter_fpga.assignment && a.Inter_fpga.fallbacks = [])
  | _ -> Alcotest.fail "healthy cluster must solve");
  (* Every device failed: infeasible, not a crash. *)
  (match Inter_fpga.run_degraded ~failed_devices:[ 0; 1; 2; 3 ] ~cluster ~synthesis g with
  | Error Inter_fpga.Infeasible -> ()
  | _ -> Alcotest.fail "no survivors must be Infeasible");
  (* Too many failures for the load: typed over-capacity error. *)
  match Inter_fpga.run_degraded ~failed_devices:[ 1; 2; 3 ] ~cluster ~synthesis g with
  | Error (Inter_fpga.Over_capacity n) -> check bool "over-capacity count positive" true (n > 0)
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "1.8M LUT cannot fit one U55C"

let test_run_degraded_masked_devices () =
  let g, synthesis, cluster = degraded_fixture () in
  (* Masking excludes boards from placement (another tenant owns them)
     without declaring them dead: no degraded tag, tasks avoid them. *)
  match Inter_fpga.run_degraded ~masked_devices:[ 0 ] ~cluster ~synthesis g with
  | Ok r ->
    check bool "no task on the masked board" true
      (Array.for_all (fun f -> f <> 0) r.Inter_fpga.assignment);
    check bool "masking alone is not degradation" true
      (not
         (List.exists
            (fun t -> String.length t >= 8 && String.sub t 0 8 = "degraded")
            r.Inter_fpga.fallbacks))
  | Error e -> Alcotest.failf "masked solve failed: %s" (Inter_fpga.error_message e)

let test_survivor_hops () =
  let cluster = Cluster.make ~board:Board.u55c 4 in
  (* Healthy ring of 4: opposite corners are 2 hops apart. *)
  let h = Inter_fpga.survivor_hops cluster in
  check int "ring diameter" 2 (h 0 2);
  check int "diagonal zero" 0 (h 3 3);
  (* Killing device 1 forces 0..2 the long way round. *)
  let h' = Inter_fpga.survivor_hops ~failed_devices:[ 1 ] cluster in
  check int "detour around dead device" 2 (h' 0 2);
  check int "neighbor unaffected" 1 (h' 2 3);
  (* Cutting both links of device 0 isolates it. *)
  let h'' = Inter_fpga.survivor_hops ~failed_links:[ (0, 1); (0, 3) ] cluster in
  check int "isolated device unreachable" Inter_fpga.unreachable_dist (h'' 0 2);
  check int "rest of the ring survives" 2 (h'' 1 3);
  check int "out of range unreachable" Inter_fpga.unreachable_dist (h 0 99)

let test_replace_fast_path_and_affected () =
  let g, synthesis, cluster = degraded_fixture () in
  let prev =
    match Inter_fpga.run_degraded ~cluster ~synthesis g with
    | Ok r -> r
    | Error e -> Alcotest.failf "baseline solve failed: %s" (Inter_fpga.error_message e)
  in
  let baseline = Inter_fpga.survivor_hops cluster in
  let used = Inter_fpga.devices_used prev in
  check bool "uses at least 3 boards" true (List.length used >= 3);
  check bool "cut pairs normalized" true
    (List.for_all (fun (a, b) -> a < b) (Inter_fpga.cut_pairs prev));
  (* A fault touching nothing the placement uses: replace returns the
     previous result physically (the farm's cache-reuse path). *)
  let spare =
    match List.filter (fun d -> not (List.mem d used)) [ 0; 1; 2; 3 ] with
    | d :: _ -> d
    | [] -> Alcotest.fail "fixture must leave a spare board"
  in
  let hops_after = Inter_fpga.survivor_hops ~failed_devices:[ spare ] cluster in
  (match
     ( Inter_fpga.affected ~alive:(fun d -> d <> spare) ~hops:hops_after ~baseline prev,
       Inter_fpga.replace ~failed_devices:[ spare ] ~baseline ~prev ~cluster ~synthesis g )
   with
  | affected, Ok r ->
    (* The spare board sits on the ring, so losing it may still stretch a
       cut pair's route; reuse is exact iff [affected] says untouched. *)
    check bool "replace reuses iff unaffected" (not affected) (r == prev)
  | _, Error e -> Alcotest.failf "spare-fault replace failed: %s" (Inter_fpga.error_message e));
  (* A fault killing a used board forces a real re-solve away from it. *)
  let victim = List.hd used in
  check bool "victim fault is affected" true
    (Inter_fpga.affected
       ~alive:(fun d -> d <> victim)
       ~hops:(Inter_fpga.survivor_hops ~failed_devices:[ victim ] cluster)
       ~baseline prev);
  match Inter_fpga.replace ~failed_devices:[ victim ] ~baseline ~prev ~cluster ~synthesis g with
  | Ok r ->
    check bool "re-solve is a new placement" true (r != prev);
    check bool "victim evacuated" true
      (Array.for_all (fun f -> f <> victim) r.Inter_fpga.assignment)
  | Error e -> Alcotest.failf "victim replace failed: %s" (Inter_fpga.error_message e)

(* ------------------------------------------------------------------ *)
(* Intra-FPGA floorplanning                                            *)
(* ------------------------------------------------------------------ *)

let test_intra_fpga_places_all () =
  let g = big_task_graph ~tasks:12 ~lut:40_000 in
  let board = Board.u55c () in
  let synthesis = Synthesis.run ~board g in
  let tasks = List.init 12 Fun.id in
  match Intra_fpga.run ~board ~synthesis ~graph:g ~tasks () with
  | Ok p ->
    List.iter (fun tid -> check bool "placed" true (p.Intra_fpga.slot_of.(tid) <> None)) tasks;
    check bool "cost accounted" true (p.Intra_fpga.cost >= 0.0);
    check bool "levels recorded" true (List.length p.Intra_fpga.levels >= 1);
    (* slot usage equals the sum of placed task areas *)
    let total_used = Resource.sum (Array.to_list p.Intra_fpga.slot_usage) in
    check bool "usage conserved" true
      (Resource.equal total_used (Resource.make ~lut:(12 * 40_000) ()))
  | Error e -> Alcotest.failf "unexpected: %s" e

let test_intra_fpga_mem_tasks_near_hbm () =
  let b = Taskgraph.Builder.create () in
  let mem =
    Taskgraph.Builder.add_task b ~name:"rd"
      ~mem_ports:[ Task.mem_port ~dir:Task.Read ~width_bits:512 ~bytes:1e9 () ]
      ~resources:(Resource.make ~lut:10_000 ()) ()
  in
  let compute =
    Taskgraph.Builder.add_task b ~name:"pe" ~resources:(Resource.make ~lut:10_000 ()) ()
  in
  ignore (Taskgraph.Builder.add_fifo b ~src:mem ~dst:compute ~width_bits:512 ~elems:1e6 ());
  let g = Taskgraph.Builder.build b in
  let board = Board.u55c () in
  let synthesis = Synthesis.run ~board g in
  match Intra_fpga.run ~board ~synthesis ~graph:g ~tasks:[ mem; compute ] () with
  | Ok p -> (
    match p.Intra_fpga.slot_of.(mem) with
    | Some s -> check int "memory task in the HBM row" 0 (board.Board.slots.(s)).Board.row
    | None -> Alcotest.fail "unplaced")
  | Error e -> Alcotest.failf "unexpected: %s" e

let test_intra_fpga_overflow_fails () =
  let g = big_task_graph ~tasks:4 ~lut:400_000 in
  let board = Board.u55c () in
  let synthesis = Synthesis.run ~board g in
  match Intra_fpga.run ~board ~synthesis ~graph:g ~tasks:[ 0; 1; 2; 3 ] () with
  | Ok _ -> Alcotest.fail "1.6M LUT cannot place on one board"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* HBM binding                                                         *)
(* ------------------------------------------------------------------ *)

let binding_fixture n_ports =
  let b = Taskgraph.Builder.create () in
  let ids =
    List.init n_ports (fun i ->
        Taskgraph.Builder.add_task b ~name:(Printf.sprintf "rd%d" i)
          ~mem_ports:[ Task.mem_port ~dir:Task.Read ~width_bits:256 ~bytes:1e8 () ]
          ())
  in
  (* keep the graph connected *)
  let rec link = function
    | a :: (c :: _ as rest) ->
      ignore (Taskgraph.Builder.add_fifo b ~src:a ~dst:c ());
      link rest
    | _ -> ()
  in
  link ids;
  let g = Taskgraph.Builder.build b in
  let board = Board.u55c () in
  let slot_of = Array.make n_ports (Some 0) in
  (g, board, slot_of)

let test_hbm_binding_balances () =
  let g, board, slot_of = binding_fixture 16 in
  let t = Hbm_binding.run ~board ~graph:g ~slot_of () in
  check int "16 ports bound" 16 (List.length t.Hbm_binding.assignments);
  (* Balanced: no channel should carry more than one of these equal ports. *)
  check (Alcotest.float 0.001) "max load = one port" 1e8 t.Hbm_binding.max_load_bytes;
  List.iter
    (fun (a : Hbm_binding.assignment) ->
      check bool "channel in range" true (a.channel >= 0 && a.channel < 32))
    t.Hbm_binding.assignments

let test_hbm_binding_explore_beats_naive () =
  let g, board, slot_of = binding_fixture 48 in
  let explored = Hbm_binding.run ~explore:true ~board ~graph:g ~slot_of () in
  let naive = Hbm_binding.run ~explore:false ~board ~graph:g ~slot_of () in
  check bool "exploration no worse on max load" true
    (explored.Hbm_binding.max_load_bytes <= naive.Hbm_binding.max_load_bytes +. 1.0)

let test_hbm_port_bandwidth_sharing () =
  let g, board, slot_of = binding_fixture 64 in
  (* 64 equal ports on 32 channels: two per channel, each gets half. *)
  let t = Hbm_binding.run ~board ~graph:g ~slot_of () in
  let bw = Hbm_binding.effective_port_bandwidth_gbps board t ~task_id:0 ~port_index:0 in
  check bool "half a channel" true (bw > 6.0 && bw < 8.0)

let test_hbm_binding_honors_user_channel () =
  let b = Taskgraph.Builder.create () in
  let t0 =
    Taskgraph.Builder.add_task b ~name:"rd"
      ~mem_ports:[ Task.mem_port ~channel:17 ~dir:Task.Read ~width_bits:256 ~bytes:1e6 () ]
      ()
  in
  let g = Taskgraph.Builder.build b in
  let board = Board.u55c () in
  let t = Hbm_binding.run ~board ~graph:g ~slot_of:[| Some 0 |] () in
  let a = List.find (fun (a : Hbm_binding.assignment) -> a.task_id = t0) t.Hbm_binding.assignments in
  check int "user binding kept" 17 a.Hbm_binding.channel

let test_partition_cost_bounded_by_global_mincut () =
  (* Independent oracle: any bipartition of a connected instance costs at
     least the Stoer-Wagner global min cut; with loose capacities the
     exact solver must achieve a cut-compatible cost. *)
  let rng = Partition.prng_for_tests 31 in
  for _ = 1 to 15 do
    let n = 3 + Prng.int rng 5 in
    (* connected: a random tree plus extra edges *)
    let edges = ref [] in
    for v = 1 to n - 1 do
      edges := (Prng.int rng v, v, float_of_int (1 + Prng.int rng 9)) :: !edges
    done;
    for _ = 1 to Prng.int rng 6 do
      let a = Prng.int rng n and b = Prng.int rng n in
      if a <> b then edges := (min a b, max a b, float_of_int (1 + Prng.int rng 9)) :: !edges
    done;
    let edges = !edges in
    (* capacities force a nontrivial split of uniform items *)
    let cap = 10 * (n - 1) in
    let p = simple_problem ~cap ~edges (List.init n (fun _ -> 10)) in
    let mc = Mincut.create n in
    List.iter (fun (a, b, w) -> Mincut.add_edge mc a b w) edges;
    let lower, _ = Mincut.min_cut mc in
    match Partition.solve ~strategy:Partition.Exact p with
    | Some r ->
      check bool "partition cost >= global min cut" true (r.Partition.cost >= lower -. 1e-9)
    | None -> Alcotest.fail "loose capacities must be satisfiable"
  done

let test_partition_deterministic () =
  (* Same seed, same problem -> identical assignment (reproducibility). *)
  let edges = List.init 19 (fun i -> (i, i + 1, float_of_int (1 + (i mod 3)))) in
  let p = simple_problem ~k:4 ~cap:80 ~edges (List.init 20 (fun i -> 10 + (i mod 3))) in
  match (Partition.solve ~seed:9 p, Partition.solve ~seed:9 p) with
  | Some a, Some b -> check bool "deterministic" true (a.Partition.assignment = b.Partition.assignment)
  | _ -> Alcotest.fail "expected solutions"

let test_partition_cache () =
  (* The solution cache must be transparent: a warm solve returns the
     stored record, stats and all, and handing out a copy of the
     assignment keeps caller mutations from poisoning later hits. *)
  Partition.reset_cache ();
  let mk () =
    (* A fresh record (and fresh [dist] closure) per call: the key is
       content-addressed, so physically distinct but equal problems must
       still hit. *)
    simple_problem ~cap:110 ~edges:[ (0, 1, 1.0); (1, 2, 100.0); (2, 3, 1.0) ] [ 50; 50; 50; 50 ]
  in
  let r1 = Partition.solve ~strategy:Partition.Exact (mk ()) in
  let h0, m0 = Partition.cache_stats () in
  check bool "first solve misses" true (m0 >= 1 && h0 = 0);
  let r2 = Partition.solve ~strategy:Partition.Exact (mk ()) in
  let h1, _ = Partition.cache_stats () in
  check bool "second solve hits" true (h1 > h0);
  (match (r1, r2) with
  | Some a, Some b ->
    check bool "identical assignment" true (a.Partition.assignment = b.Partition.assignment);
    check bool "identical cost" true (a.Partition.cost = b.Partition.cost);
    check bool "identical stats" true
      (a.Partition.stats = b.Partition.stats);
    (* Mutate the first result; a later hit must be unaffected. *)
    a.Partition.assignment.(0) <- 99;
    (match Partition.solve ~strategy:Partition.Exact (mk ()) with
    | Some c -> check bool "cache unpoisoned by caller mutation" true (c.Partition.assignment.(0) <> 99)
    | None -> Alcotest.fail "expected a solution")
  | _ -> Alcotest.fail "expected solutions");
  Partition.reset_cache ();
  check bool "reset clears counters" true (Partition.cache_stats () = (0, 0))

let test_partition_distance_metric_matters () =
  (* The same heavy edge costs more when its endpoints land farther apart:
     a star topology's hub detour must push the solver to colocate. *)
  let edges = [ (0, 1, 10.0) ] in
  let p_chain = simple_problem ~k:3 ~cap:100 ~edges [ 40; 40; 10 ] in
  let star_dist a b = if a = b then 0 else if a = 0 || b = 0 then 1 else 2 in
  let p_star = { p_chain with Partition.dist = star_dist } in
  (match (Partition.solve p_chain, Partition.solve p_star) with
  | Some c, Some s ->
    check bool "chain keeps pair adjacent or together" true (c.Partition.cost <= 10.0);
    check bool "star solution colocates or uses hub" true (s.Partition.cost <= 10.0)
  | _ -> Alcotest.fail "expected solutions")

let test_partition_grouped_decomposition () =
  (* 12 parts in 3 server-node groups: [Auto] routes through the
     hierarchical decomposition — cluster-level assignment, one
     portfolio subproblem per group, stitch — and the answer is a pure
     function of the inputs: a worker pool changes wall clock only, and
     the cache replays the grouped stats verbatim.  The same problem without
     [groups] takes the flat path (distinct cache entry, no
     subproblems). *)
  Partition.reset_cache ();
  let groups = Array.init 12 (fun part -> part / 4) in
  let gdist a b = if a = b then 0 else if groups.(a) = groups.(b) then 1 else 2 in
  let edges = List.init 35 (fun i -> (i, i + 1, float_of_int (1 + (i mod 5)))) in
  let p = simple_problem ~k:12 ~cap:200 ~edges (List.init 36 (fun _ -> 10)) in
  let p = { p with Partition.dist = gdist } in
  let solve ?pool () = Partition.solve ?pool ~groups p in
  match solve () with
  | None -> Alcotest.fail "expected a grouped solution"
  | Some r ->
    check bool "feasible" true r.Partition.feasible;
    check bool "decomposed into subproblems" true
      (r.Partition.stats.Partition.counters.Tapa_cs_ilp.Counters.subproblems > 0);
    (match solve () with
    | Some r2 ->
      check bool "cache replays grouped stats verbatim" true
        (r.Partition.stats = r2.Partition.stats)
    | None -> Alcotest.fail "expected a warm solution");
    Partition.reset_cache ();
    let pool = Pool.create ~domains:2 () in
    let rp = Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () -> solve ~pool () in
    (match rp with
    | Some rp ->
      check bool "pool: identical assignment" true
        (r.Partition.assignment = rp.Partition.assignment);
      check bool "pool: identical stats" true (r.Partition.stats = rp.Partition.stats)
    | None -> Alcotest.fail "expected a pooled solution");
    Partition.reset_cache ();
    (match Partition.solve p with
    | Some flat ->
      let c = flat.Partition.stats.Partition.counters in
      check int "flat path spawns no subproblems" 0 c.Tapa_cs_ilp.Counters.subproblems;
      check int "flat path runs no races" 0
        (c.Tapa_cs_ilp.Counters.races_exact + c.Tapa_cs_ilp.Counters.races_anneal)
    | None -> Alcotest.fail "expected a flat solution")

let test_portfolio_certified_anneal () =
  (* 24 chained tasks on 12 parts in 3 server-node groups of 4: every
     per-group anneal meets its subproblem's root LP bound, so each
     portfolio returns the anneal answer after that one LP solve and
     never builds the branch-and-bound search. *)
  Partition.reset_cache ();
  let rng = Prng.create 41 in
  let tasks = 24 in
  let groups = Array.init 12 (fun q -> q / 4) in
  let areas = Array.init tasks (fun _ -> Resource.make ~lut:(30_000 + Prng.int rng 20_000) ()) in
  let chain = List.init (tasks - 1) (fun i -> (i, i + 1, float_of_int (32 * (1 + Prng.int rng 8)))) in
  let p =
    {
      Partition.areas;
      edges = (0, 10, 64.0) :: (10, 20, 64.0) :: chain;
      pulls = [];
      k = 12;
      capacities = Array.make 12 (Resource.make ~lut:600_000 ());
      dist = (fun a b -> if a = b then 0 else if groups.(a) = groups.(b) then 1 else 2);
      fixed = [];
    }
  in
  match Partition.solve ~groups p with
  | None -> Alcotest.fail "expected a grouped solution"
  | Some r ->
    let c = r.Partition.stats.Partition.counters in
    check int "cluster level plus three groups" 4 c.Tapa_cs_ilp.Counters.subproblems;
    check int "every portfolio certified its anneal" 3 c.Tapa_cs_ilp.Counters.races_anneal;
    check int "no search answered" 0 c.Tapa_cs_ilp.Counters.races_exact;
    check int "one root LP per portfolio" 3 c.Tapa_cs_ilp.Counters.lp_solves;
    check int "no branch-and-bound node" 0 c.Tapa_cs_ilp.Counters.bb_nodes

(* ------------------------------------------------------------------ *)
(* Fragment digest + cache                                             *)
(* ------------------------------------------------------------------ *)

(* Seeded random subproblem of the shape the grouped decomposition
   hands to the fragment cache: a handful of items and parts, random
   edges / pulls / pins and a symmetric distance table. *)
let random_digest_problem rng =
  let n = 3 + Prng.int rng 8 in
  let k = 2 + Prng.int rng 3 in
  let areas = Array.init n (fun _ -> res (10 + Prng.int rng 50)) in
  let edges =
    List.filter_map Fun.id
      (List.init
         (Prng.int rng (2 * n))
         (fun _ ->
           let a = Prng.int rng n and b = Prng.int rng n in
           if a = b then None else Some (a, b, float_of_int (1 + Prng.int rng 64))))
  in
  let pulls =
    List.init (Prng.int rng 3) (fun _ ->
        (Prng.int rng n, Prng.int rng k, float_of_int (1 + Prng.int rng 16)))
  in
  let fixed = if Prng.int rng 4 = 0 then [ (Prng.int rng n, Prng.int rng k) ] else [] in
  let dtab = Array.make_matrix k k 0 in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let d = 1 + Prng.int rng 3 in
      dtab.(i).(j) <- d;
      dtab.(j).(i) <- d
    done
  done;
  {
    Partition.areas;
    edges;
    pulls;
    k;
    capacities = Array.init k (fun _ -> res (100 + Prng.int rng 100));
    dist = (fun a b -> dtab.(a).(b));
    fixed;
  }

let shuffled rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Apply an item renumbering and a part permutation: the renamed problem
   describes the identical instance, so its digest must not move. *)
let renamed rng (p : Partition.problem) =
  let n = Array.length p.Partition.areas and k = p.Partition.k in
  let iperm = shuffled rng n and pperm = shuffled rng k in
  let pinv = Array.make k 0 in
  Array.iteri (fun old now -> pinv.(now) <- old) pperm;
  let areas = Array.make n p.Partition.areas.(0) in
  Array.iteri (fun old a -> areas.(iperm.(old)) <- a) p.Partition.areas;
  let capacities = Array.make k p.Partition.capacities.(0) in
  Array.iteri (fun old c -> capacities.(pperm.(old)) <- c) p.Partition.capacities;
  {
    Partition.areas;
    edges = List.map (fun (a, b, w) -> (iperm.(a), iperm.(b), w)) p.Partition.edges;
    pulls = List.map (fun (i, g, w) -> (iperm.(i), pperm.(g), w)) p.Partition.pulls;
    k;
    capacities;
    dist = (fun a b -> p.Partition.dist pinv.(a) pinv.(b));
    fixed = List.map (fun (i, g) -> (iperm.(i), pperm.(g))) p.Partition.fixed;
  }

let prop_digest_renaming_invariant =
  QCheck.Test.make ~name:"fragment digest invariant under renaming" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Prng.create seed in
      let p = random_digest_problem rng in
      let d = Partition.fragment_digest p in
      (* Several independent renamings of the same instance. *)
      List.for_all
        (fun _ -> Partition.fragment_digest (renamed rng p) = d)
        [ (); (); () ])

let prop_digest_mutation_sensitive =
  QCheck.Test.make ~name:"solution-relevant mutation changes fragment digest" ~count:40
    QCheck.(pair (int_range 0 100_000) (int_range 0 2))
    (fun (seed, kind) ->
      let rng = Prng.create seed in
      let p = random_digest_problem rng in
      let d = Partition.fragment_digest p in
      (* Mutate to a value no other element carries, so the change can
         never be absorbed by an automorphism of the instance. *)
      let mutated =
        match kind with
        | 0 when p.Partition.edges <> [] ->
          let wmax =
            List.fold_left (fun m (_, _, w) -> Float.max m w) 0.0 p.Partition.edges
          in
          let (a0, b0, _) = List.hd p.Partition.edges in
          {
            p with
            Partition.edges =
              (a0, b0, wmax +. 17.0) :: List.tl p.Partition.edges;
          }
        | 1 ->
          let areas = Array.copy p.Partition.areas in
          areas.(0) <- res 7777;
          { p with Partition.areas = areas }
        | _ ->
          let capacities = Array.copy p.Partition.capacities in
          capacities.(0) <- res 9999;
          { p with Partition.capacities = capacities }
      in
      Partition.fragment_digest mutated <> d)

(* ------------------------------------------------------------------ *)
(* Capacity proof                                                      *)
(* ------------------------------------------------------------------ *)

(* 0-8 items over 2-4 parts with k^n <= 20,000, so every assignment can
   be enumerated.  Items and parts draw from a few five-resource shapes,
   so both symmetry rules fire; the capacities sum to 0.7-1.1x the
   summed area; up to three pinned items, and a sixth of the pinned
   instances pin the first of them to a second part as well. *)
let random_packing_problem rng =
  let k = 2 + Prng.int rng 3 in
  let n = Prng.int rng (if k = 4 then 8 else 9) in
  let shape () =
    Resource.make ~lut:(Prng.int rng 40) ~ff:(Prng.int rng 40) ~bram:(Prng.int rng 5)
      ~dsp:(Prng.int rng 5) ~uram:(Prng.int rng 2) ()
  in
  let item_shapes = Array.init (1 + Prng.int rng 3) (fun _ -> shape ()) in
  let areas = Array.init n (fun _ -> item_shapes.(Prng.int rng (Array.length item_shapes))) in
  let part_weights = Array.init (1 + Prng.int rng 2) (fun _ -> 1.0 +. Prng.float rng 1.0) in
  let weights = Array.init k (fun _ -> part_weights.(Prng.int rng (Array.length part_weights))) in
  let fill = [| 0.7; 0.9; 1.0; 1.05; 1.1 |].(Prng.int rng 5) in
  let share = fill /. Array.fold_left ( +. ) 0.0 weights in
  let total = Resource.sum (Array.to_list areas) in
  let items = Array.init n Fun.id in
  Prng.shuffle rng items;
  let pins = List.init (Stdlib.min n (Prng.int rng 4)) (fun j -> (items.(j), Prng.int rng k)) in
  let fixed =
    match pins with
    | (i, part) :: _ when Prng.int rng 6 = 0 -> (i, (part + 1) mod k) :: pins
    | _ -> pins
  in
  let edges =
    if n < 2 then []
    else List.init (Prng.int rng n) (fun i -> (i, (i + 1) mod n, float_of_int (1 + Prng.int rng 9)))
  in
  {
    Partition.areas;
    edges;
    pulls = [];
    k;
    capacities = Array.map (fun w -> Resource.scale (share *. w) total) weights;
    dist = (fun a b -> abs (a - b));
    fixed;
  }

(* Does any of the k^n assignments meet every capacity and pin? *)
let packs p =
  let n = Partition.num_items p and k = p.Partition.k in
  let a = Array.make n 0 in
  let rec go i = if i = n then Partition.feasible_assignment p a else try_parts i 0
  and try_parts i part =
    part < k
    && ((a.(i) <- part;
         go (i + 1))
       || try_parts i (part + 1))
  in
  go 0

let prop_capacity_proof_exact =
  QCheck.Test.make ~name:"capacity proof agrees with exhaustive packing" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_packing_problem (Prng.create seed) in
      let infeasible = not (packs p) in
      Partition.capacity_infeasible p = infeasible
      && (Partition.solve ~strategy:Partition.Exact p = None) = infeasible)

(* The annealer against its list-index oracle (test/oracle): 2-40 items
   in 2-6 parts with pins, a self-loop now and then, pulls with
   half-integer weights, 512-bit-scale edge weights (a third divided by
   3, so float sums round) and capacities of 0.7-1.3x an even share in
   five resources, so some starts overflow.  Budgets run from 0 to
   20,000 proposals, half of them at most 1,000: a budget that spans few
   blocks cools fast within each, so a rejection bound read anywhere
   but at the block's start shows there. *)
let anneal_problem rng =
  let k = 2 + Prng.int rng 5 in
  let n = 2 + Prng.int rng 39 in
  let areas =
    Array.init n (fun _ ->
        let lut = 1_000 + Prng.int rng 4_000 in
        Resource.make ~lut ~ff:((lut / 2) + Prng.int rng 500) ~bram:(Prng.int rng 8)
          ~dsp:(Prng.int rng 4) ~uram:(Prng.int rng 2) ())
  in
  let share = Resource.scale (1.0 /. float_of_int k) (Resource.sum (Array.to_list areas)) in
  let capacities = Array.init k (fun _ -> Resource.scale (0.7 +. Prng.float rng 0.6) share) in
  let weight () =
    let w = 512.0 *. float_of_int (1 + Prng.int rng 4) in
    if Prng.int rng 3 = 0 then w /. 3.0 else w
  in
  let edges =
    List.init (Prng.int rng (2 * n)) (fun _ ->
        let a = Prng.int rng n in
        let b = if Prng.int rng 20 = 0 then a else Prng.int rng n in
        (a, b, weight ()))
  in
  let pulls =
    List.init (Prng.int rng 5) (fun _ ->
        (Prng.int rng n, Prng.int rng k, 0.5 *. float_of_int (1 + Prng.int rng 40)))
  in
  let fixed = List.init (Prng.int rng 3) (fun _ -> (Prng.int rng n, Prng.int rng k)) in
  let table = Array.make_matrix k k 0 in
  for a = 0 to k - 1 do
    for b = a + 1 to k - 1 do
      let d = 1 + Prng.int rng 4 in
      table.(a).(b) <- d;
      table.(b).(a) <- d
    done
  done;
  let p =
    { Partition.areas; edges; pulls; k; capacities; dist = (fun a b -> table.(a).(b)); fixed }
  in
  let init = Array.init n (fun _ -> Prng.int rng k) in
  List.iter (fun (i, part) -> init.(i) <- part) fixed;
  (p, init, Prng.int rng (if Prng.bool rng then 1_001 else 20_001))

let prop_anneal_matches_oracle =
  QCheck.Test.make ~name:"anneal matches the list-index oracle" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p, init, iters = anneal_problem (Prng.create seed) in
      Partition.anneal p ~seed ~iters init = Anneal_oracle.anneal p ~seed ~iters init)

(* 21 items of 3 LUT fill 63 of 64 LUT, but a 32-LUT part holds ten. *)
let test_capacity_proof () =
  let edges = List.init 20 (fun i -> (i, i + 1, 1.0)) in
  let p = simple_problem ~cap:32 ~edges (List.init 21 (fun _ -> 3)) in
  check bool "proven infeasible" true (Partition.capacity_infeasible p);
  List.iter
    (fun (name, strategy) ->
      check bool (name ^ " returns None") true (Partition.solve ~strategy p = None))
    [ ("Auto", Partition.Auto); ("Exact", Partition.Exact); ("Heuristic", Partition.Heuristic) ];
  let roomier = { p with Partition.capacities = [| res 33; res 32 |] } in
  check bool "33 + 32 LUT packs" false (Partition.capacity_infeasible roomier)

let test_fragment_cache () =
  (* A 12-part / 3-group instance through the grouped path twice under
     different caller seeds: the second solve must replay every fragment
     (content-derived identity, caller seed excluded), and reset_cache
     must leave the fragment layer genuinely cold. *)
  Partition.reset_cache ();
  let rng = Prng.create 41 in
  let fpgas = 12 and tasks = 30 in
  let groups = Array.init fpgas (fun f -> f / 4) in
  let dist a b = if a = b then 0 else if groups.(a) = groups.(b) then 1 else 2 in
  let areas = Array.init tasks (fun _ -> res (30_000 + Prng.int rng 20_000)) in
  let edges =
    List.init (tasks - 1) (fun i -> (i, i + 1, float_of_int (32 * (1 + Prng.int rng 8))))
  in
  let p =
    {
      Partition.areas;
      edges;
      pulls = [];
      k = fpgas;
      capacities = caps fpgas 600_000;
      dist;
      fixed = [];
    }
  in
  (match Partition.solve ~groups p with
  | Some r -> check bool "cold grouped solve feasible" true r.Partition.feasible
  | None -> Alcotest.fail "expected a grouped solution");
  let cold = Partition.fragment_stats () in
  check bool "cold solve filled fragments" true (cold.Partition.frag_misses > 0);
  check int "cold solve replayed nothing" 0 cold.Partition.frag_hits;
  check bool "entries track misses" true (cold.Partition.frag_entries > 0);
  (match Partition.solve ~seed:2 ~groups p with
  | Some r -> check bool "warm grouped solve feasible" true r.Partition.feasible
  | None -> Alcotest.fail "expected a warm grouped solution");
  let warm = Partition.fragment_stats () in
  check bool "re-solve under a fresh seed replays fragments" true
    (warm.Partition.frag_hits >= cold.Partition.frag_misses);
  check int "no subproblem re-solved on replay" cold.Partition.groups_resolved
    warm.Partition.groups_resolved;
  Partition.reset_cache ();
  let reset = Partition.fragment_stats () in
  check int "reset clears entries" 0 reset.Partition.frag_entries;
  check int "reset clears hits" 0 reset.Partition.frag_hits;
  check int "reset clears misses" 0 reset.Partition.frag_misses;
  check int "reset clears resolved" 0 reset.Partition.groups_resolved

let test_intra_crossings_consistent_with_cost () =
  let g = big_task_graph ~tasks:10 ~lut:60_000 in
  let board = Board.u55c () in
  let synthesis = Synthesis.run ~board g in
  match Intra_fpga.run ~board ~synthesis ~graph:g ~tasks:(List.init 10 Fun.id) () with
  | Ok p ->
    let manual =
      List.fold_left
        (fun acc (fid, d) ->
          acc +. (float_of_int (Taskgraph.fifo g fid).Fifo.width_bits *. float_of_int d))
        0.0 p.Intra_fpga.crossings
    in
    check (Alcotest.float 1e-6) "Eq. 4 cost equals crossing sum" manual p.Intra_fpga.cost
  | Error e -> Alcotest.failf "unexpected: %s" e

let () =
  Alcotest.run "floorplan"
    [
      ( "partition",
        [
          Alcotest.test_case "capacity (Eq. 1)" `Quick test_partition_respects_capacity;
          Alcotest.test_case "infeasible detected" `Quick test_partition_infeasible;
          Alcotest.test_case "min cut (Eq. 2)" `Quick test_partition_min_cut;
          Alcotest.test_case "fixed placements" `Quick test_partition_fixed_respected;
          Alcotest.test_case "pulls" `Quick test_partition_pulls_attract;
          Alcotest.test_case "k = 1" `Quick test_partition_k1;
          Alcotest.test_case "k = 4 chain" `Quick test_partition_k4_chain;
          Alcotest.test_case "exact = brute force" `Slow test_exact_matches_brute_force;
          Alcotest.test_case "heuristic feasibility" `Quick test_heuristic_always_feasible_when_returned;
          Alcotest.test_case "decision golden" `Quick test_partition_decision_golden;
          Alcotest.test_case "determinism" `Quick test_partition_deterministic;
          Alcotest.test_case "solution cache" `Quick test_partition_cache;
          Alcotest.test_case "min-cut lower bound (oracle)" `Quick test_partition_cost_bounded_by_global_mincut;
          Alcotest.test_case "distance metrics" `Quick test_partition_distance_metric_matters;
          Alcotest.test_case "grouped decomposition" `Quick test_partition_grouped_decomposition;
          Alcotest.test_case "portfolio: certified anneal skips the search" `Quick
            test_portfolio_certified_anneal;
          Alcotest.test_case "fragment cache" `Quick test_fragment_cache;
          Alcotest.test_case "non-finite weights rejected" `Quick test_partition_non_finite_weights;
          Alcotest.test_case "capacity proof" `Quick test_capacity_proof;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_digest_renaming_invariant; prop_digest_mutation_sensitive;
              prop_capacity_proof_exact; prop_anneal_matches_oracle;
            ] );
      ( "inter_fpga",
        [
          Alcotest.test_case "spreads big designs" `Quick test_inter_fpga_spreads_when_needed;
          Alcotest.test_case "single-FPGA failure" `Quick test_inter_fpga_single_fpga_failure;
          Alcotest.test_case "networking IP overhead (§5.6)" `Quick test_inter_fpga_networking_overhead_charged;
          Alcotest.test_case "hop-weighted traffic" `Quick test_inter_fpga_traffic_weighted_by_hops;
          Alcotest.test_case "greedy fallback packs" `Quick test_partition_greedy_packs;
          Alcotest.test_case "TCS error codes" `Quick test_error_codes_match_linter_registry;
          Alcotest.test_case "degraded avoids failed FPGA" `Quick test_run_degraded_avoids_failed_device;
          Alcotest.test_case "degraded survives downed link" `Quick test_run_degraded_survives_downed_link;
          Alcotest.test_case "degraded deterministic" `Quick test_run_degraded_deterministic;
          Alcotest.test_case "degraded edge cases" `Quick test_run_degraded_edge_cases;
          Alcotest.test_case "masked devices (multi-tenant)" `Quick test_run_degraded_masked_devices;
          Alcotest.test_case "survivor hop metric" `Quick test_survivor_hops;
          Alcotest.test_case "replace fast path" `Quick test_replace_fast_path_and_affected;
        ] );
      ( "intra_fpga",
        [
          Alcotest.test_case "places all tasks" `Quick test_intra_fpga_places_all;
          Alcotest.test_case "HBM pull (§4.5)" `Quick test_intra_fpga_mem_tasks_near_hbm;
          Alcotest.test_case "overflow fails" `Quick test_intra_fpga_overflow_fails;
          Alcotest.test_case "cost = crossing sum (Eq. 4)" `Quick test_intra_crossings_consistent_with_cost;
        ] );
      ( "hbm_binding",
        [
          Alcotest.test_case "balances channels" `Quick test_hbm_binding_balances;
          Alcotest.test_case "exploration helps" `Quick test_hbm_binding_explore_beats_naive;
          Alcotest.test_case "bandwidth sharing" `Quick test_hbm_port_bandwidth_sharing;
          Alcotest.test_case "user channel honored" `Quick test_hbm_binding_honors_user_channel;
        ] );
    ]
