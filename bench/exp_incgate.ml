(* CI gate for subproblem-granular incremental recompilation.

   The tentpole contract: after an edit to a placed design, the grouped
   floorplanner re-solves only the node groups whose canonical
   subproblem digest changed and replays every untouched group from the
   process-wide fragment cache — and the stitched result is
   byte-identical to a cold solve of the edited design.  Three hard
   properties:

   1. Dirty-set locality: a single FIFO-width edit re-solves at most 4
      node-group subproblems, and at most a quarter of the groups the
      cold solve resolved; the rest are fragment-cache hits.  Both
      counts are [Partition.fragment_stats] deltas, so the bound fails
      exactly when the fragment path stops short-circuiting work.

   2. Byte-identity: the incremental re-solve of an edited
      100-FPGA/1000-task design equals the fully cold re-solve of the
      same edited design — assignment, cost and solver stats — and
      jobs=1 equals jobs=N in both the answer and the fragment
      traffic.  Fragments may only ever change wall-clock, never an
      answer.  (The cold jobs=1/jobs=N comparison of the same instance
      is ilpgate's.)

   3. Farm reuse: a 1-dead-board churn scenario through the farm
      controller shows fragment-cache hits in its stats-json, with the
      farm gate's books and repeat-run byte-identity fully intact. *)

open Tapa_cs_device
open Tapa_cs_floorplan
open Tapa_cs_farm
module Fault = Tapa_cs_network.Fault

(* A single-task edit: widen the FIFO between tasks 500 and 501.  Under
   the weight-independent BFS chunking the edit cannot move any chunk
   boundary, so it dirties exactly the group(s) hosting that edge. *)
let edited (p : Partition.problem) delta =
  let widen (a, b, w) = if a = 500 && b = 501 then (a, b, w +. delta) else (a, b, w) in
  { p with edges = List.map widen p.edges }

let incremental_check pool =
  let problem, groups = Exp_ilpgate.synthetic ~fpgas:100 ~tasks:1000 () in
  let solve p =
    match Partition.solve ~pool ~groups p with
    | Some r -> r
    | None -> Gate.fail "grouped solve returned no result"
  in
  (* Cold base solve: populates the fragment cache.  Then the edited
     design on warm fragments. *)
  Partition.reset_cache ();
  let base, t_cold = Gate.timed (fun () -> solve problem) in
  let cold = Partition.fragment_stats () in
  let edited_problem = edited problem 32.0 in
  let inc, t_inc = Gate.timed (fun () -> solve edited_problem) in
  let warm = Partition.fragment_stats () in
  let hits = warm.frag_hits - cold.frag_hits in
  let dirty = warm.groups_resolved - cold.groups_resolved in
  if dirty > 4 || 4 * dirty > cold.groups_resolved then
    Gate.fail "single-task edit re-solved %d of the %d groups the cold solve resolved" dirty
      cold.groups_resolved;
  if cold.frag_misses = 0 then Gate.fail "cold solve consulted no fragments (grouped path off?)";
  if not base.Partition.feasible then Gate.fail "base solve infeasible";
  if hits = 0 then Gate.fail "incremental re-solve replayed no fragments";
  (* Byte-identity: cold re-solve of the same edited design. *)
  Partition.reset_cache ();
  if inc <> solve edited_problem then
    Gate.fail "incremental and cold solves of the edited design differ";
  Printf.printf
    "  100-FPGA/1000-task edit, jobs=%d: cold %.2fs -> incremental %.3fs, %d fragment hits, \
     dirty set %d/%d groups\n"
    (Tapa_cs_util.Pool.size pool + 1) t_cold t_inc hits dirty cold.groups_resolved;
  (inc, hits, dirty)

(* A farm whose single tenant is large enough to take the grouped
   hierarchical path (4 node groups on a 16-board farm), churned by a
   board death, its recovery, and a link flap.  The link round-trip
   forces a re-solve of a topology whose untouched node groups are
   already cached — fragment identity is content-derived and seed-free,
   so the re-solve replays them even though every farm attempt carries
   a fresh solver seed. *)
let farm_scenario () =
  let cluster = Cluster.heterogeneous ~boards_per_node:4 [ Board.u55c ] 16 in
  let graph =
    (Tapa_cs_apps.Stencil.generate (Tapa_cs_apps.Stencil.make_config ~iterations:8 ~fpgas:12 ()))
      .Tapa_cs_apps.App.graph
  in
  let tenant = Tenant.make ~id:0 ~name:"big" ~slo:Tenant.Best_effort ~arrival_s:0.0 graph in
  let timeline =
    Fault.timeline
      [
        (50.0, Fault.Device_down 1);
        (100.0, Fault.Device_up 1);
        (150.0, Fault.Link_down (8, 9));
        (200.0, Fault.Link_up (8, 9));
      ]
  in
  let config = { Farm.default_config with Farm.seed = 5; horizon_s = 300.0 } in
  fun pool -> Farm.run ?pool ~config ~cluster ~timeline [ tenant ]

let run () =
  Exp_common.section "Incremental gate: fragment cache + dirty-set re-solving (CI)";
  ignore
    (Gate.jobs_invariant ~label:"incremental re-solve" incremental_check);
  (* Farm churn with fragment reuse. *)
  let label = "farm churn" and scenario = farm_scenario () in
  let stats = Gate.repeatable ~label ~same:Gate.same_farm (fun () -> scenario None) in
  ignore (Gate.jobs_invariant ~label ~same:Gate.same_farm (fun pool -> scenario (Some pool)));
  if stats.Farm.frag_hits = 0 then
    Gate.fail "farm churn produced no fragment-cache hits (got %d misses)" stats.Farm.frag_misses;
  Gate.farm_books ~label stats;
  if not (Gate.contains ~sub:"\"frag_hits\":" (Farm.stats_json stats)) then
    Gate.fail "farm stats-json carries no frag_hits field";
  Printf.printf
    "  farm churn (death + recovery + link flap): %d fragment hits / %d misses, %d groups \
     re-solved, books closed\n"
    stats.Farm.frag_hits stats.Farm.frag_misses stats.Farm.groups_resolved
