(* Tests for the fault-tolerant multi-tenant farm controller: tenant
   workload generation, availability accounting, determinism, fault
   churn and the strict-SLO failover contract. *)

open Tapa_cs_device
open Tapa_cs_farm
module Fault = Tapa_cs_network.Fault

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let fl = Alcotest.float 1e-9

let farm_cluster n =
  Cluster.heterogeneous ~boards_per_node:4 [ Board.u55c; Board.u250; Board.stratix10 ] n

let small_config =
  { Farm.default_config with Farm.horizon_s = 300.0; max_retries = 2; backoff_s = 5.0 }

let churn_timeline =
  Fault.timeline
    [
      (40.0, Fault.Device_down 3);
      (90.0, Fault.Device_up 3);
      (120.0, Fault.Loss_rate 0.02);
      (180.0, Fault.Loss_rate 0.0);
      (200.0, Fault.Link_down (0, 1));
      (250.0, Fault.Link_up (0, 1));
    ]

let run_small ?pool ?(seed = 3) ?(tenants = 6) ?(timeline = churn_timeline) () =
  let workload = Tenant.workload ~seed ~tenants () in
  Farm.run ?pool ~config:{ small_config with Farm.seed } ~cluster:(farm_cluster 16) ~timeline
    workload

(* ------------------------------------------------------------------ *)
(* Tenant workloads                                                    *)
(* ------------------------------------------------------------------ *)

let test_workload_deterministic () =
  let w1 = Tenant.workload ~seed:7 ~tenants:10 () in
  let w2 = Tenant.workload ~seed:7 ~tenants:10 () in
  check int "10 tenants" 10 (List.length w1);
  List.iter2
    (fun (a : Tenant.t) (b : Tenant.t) ->
      check Alcotest.string "same name" a.Tenant.name b.Tenant.name;
      check fl "same arrival" a.Tenant.arrival_s b.Tenant.arrival_s;
      check bool "same slo" true (a.Tenant.slo = b.Tenant.slo))
    w1 w2;
  let w3 = Tenant.workload ~seed:8 ~tenants:10 () in
  check bool "different seed diverges" true
    (List.exists2
       (fun (a : Tenant.t) (b : Tenant.t) -> a.Tenant.arrival_s <> b.Tenant.arrival_s)
       w1 w3);
  (* strict_every paces the SLO classes; arrivals never decrease. *)
  let strict =
    List.filter (fun (t : Tenant.t) -> t.Tenant.slo = Tenant.Strict) w1 |> List.length
  in
  check int "every 3rd tenant strict" 4 strict;
  let rec monotone = function
    | (a : Tenant.t) :: (b : Tenant.t) :: rest ->
      a.Tenant.arrival_s <= b.Tenant.arrival_s && monotone (b :: rest)
    | _ -> true
  in
  check bool "arrivals monotone" true (monotone w1)

(* ------------------------------------------------------------------ *)
(* Availability accounting                                             *)
(* ------------------------------------------------------------------ *)

let test_accounting_sums_to_tenant_time () =
  let stats = run_small () in
  (* Per tenant: healthy + degraded + down = horizon - arrival, exactly. *)
  List.iter
    (fun (r : Farm.tenant_report) ->
      let expected = small_config.Farm.horizon_s -. r.Farm.tenant.Tenant.arrival_s in
      check (Alcotest.float 1e-6)
        (r.Farm.tenant.Tenant.name ^ ": buckets sum to lifetime")
        expected
        (r.Farm.healthy_s +. r.Farm.degraded_s +. r.Farm.down_s))
    stats.Farm.tenants;
  let lifetimes =
    List.fold_left
      (fun acc (r : Farm.tenant_report) ->
        acc +. (small_config.Farm.horizon_s -. r.Farm.tenant.Tenant.arrival_s))
      0.0 stats.Farm.tenants
  in
  check (Alcotest.float 1e-6) "total tenant-time" lifetimes (Farm.total_tenant_s stats)

let test_fault_reports_and_recovery () =
  let stats = run_small () in
  (* The two down-type events (device-down, link-down) produce fault
     reports; recoveries and loss episodes are visible in the sample
     timeline instead. *)
  check int "two fault reports" 2 (List.length stats.Farm.faults);
  let rec ordered = function
    | (a : Farm.fault_report) :: (b : Farm.fault_report) :: rest ->
      a.Farm.at_s <= b.Farm.at_s && ordered (b :: rest)
    | _ -> true
  in
  check bool "reports in time order" true (ordered stats.Farm.faults);
  (* Down-type events carry a TTR once everyone displaced recovered. *)
  List.iter
    (fun (f : Farm.fault_report) ->
      match f.Farm.ttr_s with
      | Some t -> check bool (f.Farm.event ^ ": ttr non-negative") true (t >= 0.0)
      | None ->
        check bool (f.Farm.event ^ ": unresolved only with displacement") true
          (f.Farm.displaced <> []))
    stats.Farm.faults;
  (* The loss episode closes before the horizon, so nobody ends degraded
     by ambient loss alone. *)
  check bool "mean ttr defined" true (Farm.mean_ttr_s stats <> None)

let test_device_ownership_exclusive () =
  let stats = run_small () in
  (* No board is owned by two tenants at the horizon. *)
  let all = List.concat_map (fun (r : Farm.tenant_report) -> r.Farm.devices) stats.Farm.tenants in
  check int "device ownership exclusive" (List.length all)
    (List.length (List.sort_uniq compare all));
  (* Every placed tenant owns at least one in-range board. *)
  List.iter
    (fun (r : Farm.tenant_report) ->
      if r.Farm.final_health <> Farm.Down then begin
        check bool (r.Farm.tenant.Tenant.name ^ ": owns boards") true (r.Farm.devices <> []);
        check bool (r.Farm.tenant.Tenant.name ^ ": boards in range") true
          (List.for_all (fun d -> d >= 0 && d < stats.Farm.boards) r.Farm.devices)
      end)
    stats.Farm.tenants

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_run_deterministic () =
  let a = run_small () and b = run_small () in
  check Alcotest.string "identical stats json across runs" (Farm.stats_json a)
    (Farm.stats_json b)

let test_jobs_independent () =
  if Tapa_cs_util.Pool.default_jobs () < 2 then ()
  else begin
    let seq = run_small () in
    let pool = Tapa_cs_util.Pool.create ~domains:2 () in
    Fun.protect ~finally:(fun () -> Tapa_cs_util.Pool.shutdown pool) @@ fun () ->
    let par = run_small ~pool () in
    check Alcotest.string "pool does not change the stats" (Farm.stats_json seq)
      (Farm.stats_json par)
  end

(* ------------------------------------------------------------------ *)
(* Fault churn and SLO semantics                                       *)
(* ------------------------------------------------------------------ *)

let test_strict_tenants_never_silently_degraded () =
  let stats = run_small ~tenants:8 () in
  List.iter
    (fun (r : Farm.tenant_report) ->
      if r.Farm.tenant.Tenant.slo = Tenant.Strict then
        match r.Farm.final_health with
        | Farm.Healthy -> ()
        | Farm.Down -> check bool "down only out of budget or waiting" true true
        | Farm.Degraded ->
          Alcotest.failf "strict tenant %s ended silently degraded" r.Farm.tenant.Tenant.name)
    stats.Farm.tenants

let test_displacement_and_failover () =
  (* Kill a board for good mid-run: tenants on it must re-place (failover)
     or end explicitly down — never keep the dead board. *)
  let timeline = Fault.timeline [ (60.0, Fault.Device_down 0); (60.0, Fault.Device_down 1) ] in
  let stats = run_small ~tenants:8 ~timeline () in
  List.iter
    (fun (r : Farm.tenant_report) ->
      check bool
        (r.Farm.tenant.Tenant.name ^ ": no dead board owned")
        true
        (not (List.mem 0 r.Farm.devices || List.mem 1 r.Farm.devices)))
    stats.Farm.tenants;
  (* Displaced tenants show up in the fault report of the down event. *)
  let displaced =
    List.concat_map (fun (f : Farm.fault_report) -> f.Farm.displaced) stats.Farm.faults
  in
  List.iter
    (fun id ->
      let r = List.find (fun (r : Farm.tenant_report) -> r.Farm.tenant.Tenant.id = id) stats.Farm.tenants in
      check bool
        (r.Farm.tenant.Tenant.name ^ ": displaced tenant re-placed, failed over or down")
        true
        (r.Farm.failed_over || r.Farm.replacements > 0 || r.Farm.final_health = Farm.Down))
    (List.sort_uniq compare displaced)

let test_retry_budget_exhaustion () =
  (* One board left alive cannot host everyone: some tenants must burn
     their retry budget and be explicitly reported down, no exception. *)
  let timeline =
    Fault.timeline (List.init 15 (fun d -> (50.0, Fault.Device_down (d + 1))))
  in
  let stats = run_small ~tenants:8 ~timeline () in
  let downed =
    List.filter (fun (r : Farm.tenant_report) -> r.Farm.final_health = Farm.Down) stats.Farm.tenants
  in
  check bool "some tenants explicitly down" true (downed <> []);
  List.iter
    (fun (r : Farm.tenant_report) ->
      check bool (r.Farm.tenant.Tenant.name ^ ": down tenants own nothing") true
        (r.Farm.devices = []))
    downed;
  (* Out-of-budget tenants are flagged; accounting still balances. *)
  check bool "give-ups recorded" true
    (List.exists (fun (r : Farm.tenant_report) -> r.Farm.gave_up) downed);
  let sum =
    List.fold_left
      (fun acc (r : Farm.tenant_report) -> acc +. r.Farm.healthy_s +. r.Farm.degraded_s +. r.Farm.down_s)
      0.0 stats.Farm.tenants
  in
  check (Alcotest.float 1e-6) "accounting survives give-ups" sum (Farm.total_tenant_s stats)

let test_loss_episode_degrades_spanning_tenants () =
  (* An ambient-loss episode only touches tenants with cut traffic; the
     samples inside the episode reflect it and it clears afterwards. *)
  let timeline = Fault.timeline [ (100.0, Fault.Loss_rate 0.05); (200.0, Fault.Loss_rate 0.0) ] in
  let stats = run_small ~tenants:6 ~timeline () in
  (* Loss episodes displace nobody, so they are not fault reports; they
     appear as processed instants in the sample timeline. *)
  check int "no displacement faults" 0 (List.length stats.Farm.faults);
  check bool "episode instants sampled" true
    (List.exists (fun (s : Farm.sample) -> s.Farm.t_s = 100.0) stats.Farm.timeline
    && List.exists (fun (s : Farm.sample) -> s.Farm.t_s = 200.0) stats.Farm.timeline);
  (* After the episode ends nobody is degraded by loss alone. *)
  List.iter
    (fun (r : Farm.tenant_report) ->
      if r.Farm.final_health = Farm.Degraded then
        check bool (r.Farm.tenant.Tenant.name ^ ": degradation has a cause") true
          (r.Farm.gave_up || r.Farm.degraded_s > 0.0))
    stats.Farm.tenants

let test_stats_json_shape () =
  let stats = run_small ~tenants:4 () in
  let json = Farm.stats_json stats in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and hl = String.length json in
        let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
        go 0
      in
      check bool ("json carries " ^ needle) true found)
    [
      {|"boards":16|}; {|"seed":3|}; {|"tenants":[|}; {|"faults":[|}; {|"timeline":[|};
      {|"final_health"|}; {|"utilization"|}; {|"fragmentation"|}; {|"max_link_sharers"|};
      {|"ttr_s"|}; {|"reused_placements"|};
    ];
  (* Samples cover every processed instant in time order. *)
  let rec ordered = function
    | (a : Farm.sample) :: (b : Farm.sample) :: rest -> a.Farm.t_s <= b.Farm.t_s && ordered (b :: rest)
    | _ -> true
  in
  check bool "samples in time order" true (ordered stats.Farm.timeline);
  check bool "samples exist" true (stats.Farm.timeline <> [])

(* A NaN retry time never drains from the event loop, so a bad backoff
   or horizon must be refused before the loop starts. *)
(* ------------------------------------------------------------------ *)
(* Churn golden                                                        *)
(* ------------------------------------------------------------------ *)

(* Two seeded churn scenarios on a 16-board farm: a small workload plus
   one 12-board stencil tenant arriving first, so its placement spans
   more than 8 boards on 4 nodes and takes the grouped path.  Their
   stats pin every placement the farm's local searches decide. *)
let churn_scenario k =
  let prng = Tapa_cs_util.Prng.create (7919 * (k + 1)) in
  let boards = 16 in
  let window () =
    let start = 20.0 +. Tapa_cs_util.Prng.float prng 180.0 in
    (start, start +. 20.0 +. Tapa_cs_util.Prng.float prng 40.0)
  in
  let tenants = Tenant.workload ~seed:(Tapa_cs_util.Prng.int prng 1_000_000) ~tenants:5 () in
  let big =
    Tapa_cs_apps.(Stencil.generate (Stencil.make_config ~iterations:8 ~fpgas:12 ())).graph
  in
  let big = Tenant.make ~id:5 ~name:"stencil-i8-f12" ~slo:Tenant.Best_effort ~arrival_s:0.0 big in
  let config = { small_config with Farm.seed = Tapa_cs_util.Prng.int prng 1_000_000 } in
  let device = Tapa_cs_util.Prng.int prng boards and edge = Tapa_cs_util.Prng.int prng (boards - 1) in
  let down, up = window () and link_down, link_up = window () and loss_on, loss_off = window () in
  let timeline =
    Fault.timeline
      [
        (down, Fault.Device_down device);
        (up, Fault.Device_up device);
        (link_down, Fault.Link_down (edge, edge + 1));
        (link_up, Fault.Link_up (edge, edge + 1));
        (loss_on, Fault.Loss_rate 0.02);
        (loss_off, Fault.Loss_rate 0.0);
      ]
  in
  Farm.run ~config ~cluster:(farm_cluster boards) ~timeline (big :: tenants)

let test_churn_golden () =
  let stats = List.map churn_scenario [ 0; 1 ] in
  List.iter
    (fun (st : Farm.stats) -> check bool "the grouped path re-solved groups" true (st.Farm.groups_resolved > 0))
    stats;
  Golden_file.check "farm_churn.expected"
    (String.concat "" (List.map (fun st -> Farm.stats_json st ^ "\n") stats))

let test_bad_config_rejected () =
  List.iter
    (fun (what, config) ->
      match Farm.run ~config ~cluster:(farm_cluster 4) ~timeline:(Fault.timeline []) [] with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [
      ("backoff nan", { small_config with Farm.backoff_s = Float.nan });
      ("backoff -1", { small_config with Farm.backoff_s = -1.0 });
      ("backoff inf", { small_config with Farm.backoff_s = Float.infinity });
      ("horizon nan", { small_config with Farm.horizon_s = Float.nan });
      ("horizon -5", { small_config with Farm.horizon_s = -5.0 });
    ]

let () =
  Alcotest.run "farm"
    [
      ("workload", [ Alcotest.test_case "deterministic generation" `Quick test_workload_deterministic ]);
      ( "accounting",
        [
          Alcotest.test_case "buckets sum to tenant-time" `Quick test_accounting_sums_to_tenant_time;
          Alcotest.test_case "fault reports and TTR" `Quick test_fault_reports_and_recovery;
          Alcotest.test_case "exclusive device ownership" `Quick test_device_ownership_exclusive;
          Alcotest.test_case "stats json shape" `Quick test_stats_json_shape;
          Alcotest.test_case "bad backoff or horizon rejected" `Quick test_bad_config_rejected;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical across runs" `Quick test_run_deterministic;
          Alcotest.test_case "identical across jobs" `Quick test_jobs_independent;
        ] );
      ( "churn",
        [
          Alcotest.test_case "strict never silently degraded" `Quick
            test_strict_tenants_never_silently_degraded;
          Alcotest.test_case "displacement and failover" `Quick test_displacement_and_failover;
          Alcotest.test_case "retry budget exhaustion" `Quick test_retry_budget_exhaustion;
          Alcotest.test_case "loss episodes" `Quick test_loss_episode_degrades_spanning_tenants;
          Alcotest.test_case "golden stats of two churn scenarios" `Quick test_churn_golden;
        ] );
    ]
