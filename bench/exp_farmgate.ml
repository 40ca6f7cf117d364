(* CI gate for the fault-tolerant multi-tenant farm controller.

   Three properties:

   1. Determinism (hard): the farm runs on a simulated clock and every
      solver it calls is worker-count independent, so the emitted
      stats-json timeline must be byte-identical across repeated runs
      and across jobs = 1 vs jobs = N.  Any divergence means wall-clock
      or domain-scheduling state leaked into an answer.

   2. Strict-SLO failover (hard): a strict tenant is never left
      *silently* degraded by placement quality — at the horizon it is
      either healthy (possibly failed over onto spare boards) or
      explicitly down with its retry budget accounted.  Best-effort
      tenants may accept relaxed-threshold or greedy placements.

   3. Accounting closure (hard): per tenant, healthy + degraded + down
      seconds equal horizon - arrival exactly; summed over tenants they
      equal the controller's own total.  Every down-type fault event
      either recovers within the horizon (0 <= TTR <= horizon - at) or
      names a displaced tenant that never came back: one that gave up,
      or that ends the horizon unplaced or not healthy.

   The churn scenario is the 32-board heterogeneous smoke from the
   farm's CLI docs; a 100-board / 50-tenant / 12-event scenario scales
   the same checks to the acceptance size.  Properties 2 and 3 are
   [Gate.farm_books].  The re-placement cost itself is measured by
   perfbench's farm_churn workload. *)

open Tapa_cs_device
open Tapa_cs_farm
module Fault = Tapa_cs_network.Fault

let heterogeneous n =
  Cluster.heterogeneous ~boards_per_node:4 [ Board.u55c; Board.u250; Board.stratix10 ] n

let smoke_timeline =
  Fault.timeline
    [
      (40.0, Fault.Device_down 3);
      (70.0, Fault.Link_down (8, 9));
      (90.0, Fault.Device_up 3);
      (120.0, Fault.Loss_rate 0.02);
      (150.0, Fault.Link_up (8, 9));
      (180.0, Fault.Loss_rate 0.0);
      (220.0, Fault.Device_down 12);
      (260.0, Fault.Device_up 12);
    ]

let run () =
  Exp_common.section "Farm gate: multi-tenant churn determinism + SLO failover (CI)";
  let config = { Farm.default_config with Farm.seed = 7; horizon_s = 300.0 } in
  let cluster = heterogeneous 32 in
  let workload = Tenant.workload ~seed:7 ~tenants:12 () in
  let run_with pool = Farm.run ?pool ~config ~cluster ~timeline:smoke_timeline workload in
  let label = "32-board smoke" in
  let seq = Gate.repeatable ~label ~same:Gate.same_farm (fun () -> run_with None) in
  ignore (Gate.jobs_invariant ~label ~same:Gate.same_farm (fun pool -> run_with (Some pool)));
  Gate.farm_books ~label seq;
  let healthy =
    List.length
      (List.filter (fun (r : Farm.tenant_report) -> r.Farm.final_health = Farm.Healthy)
         seq.Farm.tenants)
  in
  Printf.printf
    "  32-board smoke: %d/%d tenants healthy at horizon, %d fault(s), %d reused placement(s)\n"
    healthy (List.length seq.Farm.tenants) (List.length seq.Farm.faults) seq.Farm.reused;
  (* Acceptance-scale scenario: 100 boards, 50 tenants, 12 fault events. *)
  let big_timeline =
    Fault.timeline
      [
        (30.0, Fault.Device_down 5);
        (45.0, Fault.Device_down 17);
        (60.0, Fault.Link_down (20, 21));
        (80.0, Fault.Device_up 5);
        (100.0, Fault.Loss_rate 0.01);
        (130.0, Fault.Device_down 40);
        (150.0, Fault.Loss_rate 0.0);
        (170.0, Fault.Device_up 17);
        (200.0, Fault.Link_up (20, 21));
        (230.0, Fault.Device_down 63);
        (260.0, Fault.Device_up 40);
        (280.0, Fault.Device_up 63);
      ]
  in
  let big_config = { Farm.default_config with Farm.seed = 11; horizon_s = 400.0 } in
  let big_workload = Tenant.workload ~seed:11 ~tenants:50 ~mean_gap_s:6.0 () in
  let big, t_big =
    Gate.timed (fun () ->
        Gate.with_pool (fun pool ->
            Farm.run ~pool ~config:big_config ~cluster:(heterogeneous 100) ~timeline:big_timeline
              big_workload))
  in
  Gate.farm_books ~label:"100-board scenario" big;
  (* The 12-event timeline carries 5 down-type events; each must have a
     fault report (recoveries and loss episodes land in the samples). *)
  if List.length big.Farm.faults <> 5 then
    Gate.fail "100-board scenario: expected 5 down-type fault reports, got %d"
      (List.length big.Farm.faults);
  let placed =
    List.length
      (List.filter (fun (r : Farm.tenant_report) -> r.Farm.final_health <> Farm.Down)
         big.Farm.tenants)
  in
  let ttr = match Farm.mean_ttr_s big with Some t -> Printf.sprintf "%.1f s" t | None -> "n/a" in
  Printf.printf
    "  100-board/50-tenant churn: %d/50 placed at horizon, %d fault(s), mean TTR %s, %d \
     reused, %.1fs\n"
    placed (List.length big.Farm.faults) ttr big.Farm.reused t_big
