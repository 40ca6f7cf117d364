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
   the same checks to the acceptance size.  The re-placement latency
   itself is pinned in BENCH_micro.json ("farm re-placement, 1 dead
   board"). *)

open Tapa_cs_util
open Tapa_cs_device
open Tapa_cs_farm
module Fault = Tapa_cs_network.Fault

let fail fmt = Printf.ksprintf (fun s -> Printf.printf "  FAIL %s\n" s; exit 1) fmt

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

let check_invariants ~label stats =
  (* Strict tenants: healthy or explicitly down, never silently degraded. *)
  List.iter
    (fun (r : Farm.tenant_report) ->
      if r.Farm.tenant.Tenant.slo = Tenant.Strict && r.Farm.final_health = Farm.Degraded then
        fail "%s: strict tenant %s ended silently degraded" label r.Farm.tenant.Tenant.name;
      if r.Farm.final_health = Farm.Down && not (r.Farm.gave_up || r.Farm.attempts > 0) then
        fail "%s: tenant %s down without any recorded attempt" label r.Farm.tenant.Tenant.name;
      let lifetime = stats.Farm.horizon_s -. r.Farm.tenant.Tenant.arrival_s in
      let sum = r.Farm.healthy_s +. r.Farm.degraded_s +. r.Farm.down_s in
      if Float.abs (sum -. lifetime) > 1e-6 then
        fail "%s: tenant %s accounts %.6f s of a %.6f s lifetime" label
          r.Farm.tenant.Tenant.name sum lifetime)
    stats.Farm.tenants;
  (* Ownership is exclusive at the horizon. *)
  let owned = List.concat_map (fun (r : Farm.tenant_report) -> r.Farm.devices) stats.Farm.tenants in
  if List.length owned <> List.length (List.sort_uniq compare owned) then
    fail "%s: two tenants own the same board" label;
  (* Every fault either recovered within the horizon or names a
     displaced tenant that never did: one that gave up, or that ends the
     horizon unplaced or not healthy. *)
  let never_recovered id =
    List.exists
      (fun (r : Farm.tenant_report) ->
        r.Farm.tenant.Tenant.id = id
        && (r.Farm.gave_up || r.Farm.devices = [] || r.Farm.final_health <> Farm.Healthy))
      stats.Farm.tenants
  in
  List.iter
    (fun (f : Farm.fault_report) ->
      match f.Farm.ttr_s with
      | Some ttr ->
        if ttr < 0.0 || ttr > stats.Farm.horizon_s -. f.Farm.at_s then
          fail "%s: fault %S at %.1f s reports TTR %.3f s outside [0, horizon - at]" label
            f.Farm.event f.Farm.at_s ttr
      | None ->
        if not (List.exists never_recovered f.Farm.displaced) then
          fail "%s: fault %S has no TTR yet every displaced tenant recovered" label f.Farm.event)
    stats.Farm.faults

let run () =
  Exp_common.section "Farm gate: multi-tenant churn determinism + SLO failover (CI)";
  let config = { Farm.default_config with Farm.seed = 7; horizon_s = 300.0 } in
  let cluster = heterogeneous 32 in
  let workload = Tenant.workload ~seed:7 ~tenants:12 () in
  let run_with pool = Farm.run ?pool ~config ~cluster ~timeline:smoke_timeline workload in
  let t0 = Unix.gettimeofday () in
  let seq = run_with None in
  let t_seq = Unix.gettimeofday () -. t0 in
  let seq_json = Farm.stats_json seq in
  (* Repeat-run determinism. *)
  if Farm.stats_json (run_with None) <> seq_json then
    fail "32-board smoke: two jobs=1 runs emitted different stats timelines";
  (* jobs=N determinism (skipped on single-core hosts, where extra
     domains only time-slice). *)
  if Pool.default_jobs () >= 2 then begin
    let pool = Pool.create () in
    let par = Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> run_with (Some pool)) in
    if Farm.stats_json par <> seq_json then
      fail "32-board smoke: jobs=1 and jobs=N stats timelines differ"
  end;
  check_invariants ~label:"32-board smoke" seq;
  let healthy =
    List.length
      (List.filter (fun (r : Farm.tenant_report) -> r.Farm.final_health = Farm.Healthy)
         seq.Farm.tenants)
  in
  Printf.printf
    "  32-board smoke: %d/%d tenants healthy at horizon, %d fault(s), %d reused placement(s), \
     %.1fs\n"
    healthy (List.length seq.Farm.tenants) (List.length seq.Farm.faults) seq.Farm.reused t_seq;
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
  let pool = if Pool.default_jobs () >= 2 then Some (Pool.create ()) else None in
  let t0 = Unix.gettimeofday () in
  let big =
    Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool) @@ fun () ->
    Farm.run ?pool ~config:big_config ~cluster:(heterogeneous 100) ~timeline:big_timeline
      big_workload
  in
  let t_big = Unix.gettimeofday () -. t0 in
  check_invariants ~label:"100-board scenario" big;
  (* The 12-event timeline carries 5 down-type events; each must have a
     fault report (recoveries and loss episodes land in the samples). *)
  if List.length big.Farm.faults <> 5 then
    fail "100-board scenario: expected 5 down-type fault reports, got %d"
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
