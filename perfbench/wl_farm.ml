(* farm_churn: one operation is one Farm.run replay of a churn scenario
   on a 32-board heterogeneous farm (4 boards per node).  A scenario is
   a seeded Tenant.workload of 12 tenants plus one 12-board stencil
   tenant large enough for the grouped hierarchical placement, churned
   by a seeded timeline of device and link outages and a loss episode.
   The scenarios are fixed and the run seed sets only the replay order,
   so runs with different seeds replay the same churn. *)

open Tapa_cs_device
open Tapa_cs_farm
module Fault = Tapa_cs_network.Fault
module Prng = Tapa_cs_util.Prng

let boards = 32
(* The fixed scenario streams: 8 of the first 9, leaving out one whose
   replay alone takes ~3 s, so a round over all of them stays ~5 s. *)
let scenario_keys = [| 0; 1; 3; 4; 5; 6; 7; 8 |]

let scenarios = Array.length scenario_keys
let horizon_s = 300.0

type scenario = {
  cluster : Cluster.t;
  config : Farm.config;
  timeline : Fault.timeline;
  tenants : Tenant.t list;
}

let cluster () = Cluster.heterogeneous ~boards_per_node:4 [ Board.u55c; Board.u250; Board.stratix10 ] boards

let big_graph () =
  (Tapa_cs_apps.Stencil.generate (Tapa_cs_apps.Stencil.make_config ~iterations:8 ~fpgas:12 ())).Tapa_cs_apps.App.graph

(* Three board outages on distinct boards, one link flap on a ring edge
   and one loss episode, each lasting 20-60 s of farm time.  The counts,
   windows and loss rates are synthetic choices that make every kind of
   event fall inside the horizon; they are not fitted to any recorded
   failure log. *)
let timeline prng =
  let window () =
    let start = 20.0 +. Prng.float prng 180.0 in
    (start, start +. 20.0 +. Prng.float prng 40.0)
  in
  let devices = Array.init boards Fun.id in
  Prng.shuffle prng devices;
  let outages =
    List.concat_map
      (fun d ->
        let down, up = window () in
        [ (down, Fault.Device_down d); (up, Fault.Device_up d) ])
      [ devices.(0); devices.(1); devices.(2) ]
  in
  let edge = Prng.int prng (boards - 1) in
  let link_down, link_up = window () in
  let loss_start, loss_stop = window () in
  Fault.timeline
    (outages
    @ [
        (link_down, Fault.Link_down (edge, edge + 1));
        (link_up, Fault.Link_up (edge, edge + 1));
        (loss_start, Fault.Loss_rate (0.01 +. Prng.float prng 0.02));
        (loss_stop, Fault.Loss_rate 0.0);
      ])

(* Scenario [k] draws everything from its own fixed stream. *)
let scenario ~cluster ~big k =
  let prng = Prng.create (7919 * (k + 1)) in
  let tenants = Tenant.workload ~seed:(Prng.int prng 1_000_000) ~tenants:8 () in
  let big = Tenant.make ~id:8 ~name:"stencil-i8-f12" ~slo:Tenant.Best_effort ~arrival_s:(Prng.float prng 60.0) big in
  {
    cluster;
    config = { Farm.default_config with Farm.seed = Prng.int prng 1_000_000; horizon_s };
    timeline = timeline prng;
    tenants = tenants @ [ big ];
  }

let replay ctx s = Farm.run ~pool:ctx.Bench.pool ~config:s.config ~cluster:s.cluster ~timeline:s.timeline s.tenants

(* Per tenant the three buckets sum to its lifetime, no board has two
   owners, and every down event recovered within the horizon or names a
   displaced tenant that never did: one that gave up, or that ends the
   horizon unplaced or not healthy. *)
let check (st : Farm.stats) =
  let closes (r : Farm.tenant_report) =
    Float.abs (r.Farm.healthy_s +. r.Farm.degraded_s +. r.Farm.down_s -. (st.Farm.horizon_s -. r.Farm.tenant.Tenant.arrival_s))
    <= 1e-6
  in
  let owned = List.concat_map (fun (r : Farm.tenant_report) -> r.Farm.devices) st.Farm.tenants in
  let never_recovered id =
    List.exists
      (fun (r : Farm.tenant_report) ->
        r.Farm.tenant.Tenant.id = id && (r.Farm.gave_up || r.Farm.devices = [] || r.Farm.final_health <> Farm.Healthy))
      st.Farm.tenants
  in
  let fault_closes (f : Farm.fault_report) =
    match f.Farm.ttr_s with
    | Some v -> 0.0 <= v && v <= st.Farm.horizon_s -. f.Farm.at_s
    | None -> List.exists never_recovered f.Farm.displaced
  in
  if not (List.for_all closes st.Farm.tenants) then Some "tenant accounting does not close"
  else if List.length owned <> List.length (List.sort_uniq compare owned) then Some "two tenants own one board"
  else if not (List.for_all fault_closes st.Farm.faults) then Some "a fault neither recovered nor names who did not"
  else None

let availability st =
  let healthy = List.fold_left (fun acc (r : Farm.tenant_report) -> acc +. r.Farm.healthy_s) 0.0 st.Farm.tenants in
  healthy /. Farm.total_tenant_s st

type slot = {
  s : scenario;
  mutable reference : string option;  (** stats_json of the first replay *)
  mutable stats : Farm.stats option;
  mutable replay_s : float list;
}

(* A traced replay wraps the Farm.run span in an outer clock; the gap
   between the two is the wall time no span covers. *)
let run_op ?uncovered ctx slot =
  Bench.attempt ctx;
  let (st, dt), outer = Bench.timed (fun () -> Bench.timed (fun () -> replay ctx slot.s)) in
  Option.iter (fun u -> u := (outer -. dt) :: !u) uncovered;
  let json = Farm.stats_json st in
  match (check st, slot.reference) with
  | Some reason, _ ->
    Bench.fail ctx "farm replay: %s" reason;
    None
  | None, Some r when r <> json ->
    Bench.fail ctx "farm replay: stats differ from an earlier replay of the scenario";
    None
  | None, _ ->
    slot.reference <- Some json;
    slot.stats <- Some st;
    Some dt

let setup ctx =
  Bench.setup ~reps:5 (fun () ->
      let prng = Prng.create ctx.Bench.seed in
      let cluster = cluster () and big = big_graph () in
      let slots =
        Array.init scenarios (fun k ->
            { s = scenario ~cluster ~big scenario_keys.(k); reference = None; stats = None; replay_s = [] })
      in
      (* Warm-up: one replay, kept out of the figures. *)
      ignore (replay ctx slots.(0).s);
      (slots, prng))

let ms s = s *. 1e3

let run ctx =
  let (slots, prng), setup_s = setup ctx in
  let deadline = Bench.now () +. ctx.Bench.seconds in
  let order = Array.init scenarios Fun.id in
  (* Every scenario is replayed once per round, in a seeded order; the
     traced run alternates untraced and traced rounds. *)
  let uncovered = ref [] and plain = ref [] and traced = ref [] and round = ref 0 and round_s = ref [] in
  (* Only whole rounds count, so every scenario weighs the same; the
     round the deadline cuts short is dropped. *)
  while Bench.now () < deadline || !round < if ctx.Bench.trace then 2 else 1 do
    Prng.shuffle prng order;
    let is_traced = ctx.Bench.trace && !round mod 2 = 1 in
    let this_round = ref [] in
    Array.iter
      (fun i ->
        if Bench.now () < deadline || !round < 2 then
          match run_op ?uncovered:(if is_traced then Some uncovered else None) ctx slots.(i) with
          | Some dt -> this_round := (i, dt) :: !this_round
          | None -> ())
      order;
    if List.length !this_round = scenarios then begin
      List.iter (fun (i, dt) -> slots.(i).replay_s <- dt :: slots.(i).replay_s) !this_round;
      if is_traced then traced := List.map snd !this_round @ !traced
      else begin
        plain := List.map snd !this_round @ !plain;
        round_s := List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 !this_round :: !round_s
      end
    end;
    incr round
  done;
  let done_ = Array.to_list slots |> List.filter (fun sl -> sl.replay_s <> []) in
  let stats = List.map (fun sl -> Option.get sl.stats) done_ in
  if not ctx.Bench.trace then begin
    (* Scenario replay times form clusters far apart, so a percentile of
       the pooled replays jumps between clusters from run to run.  Each
       scenario's own median is steady; the figures combine those. *)
    let medians = List.map (fun sl -> ms (Stats.median (Array.of_list sl.replay_s))) done_ in
    let avail = List.fold_left (fun acc st -> acc +. availability st) 0.0 stats /. float_of_int (List.length stats) in
    Bench.report "replays" (float_of_int (List.fold_left (fun n sl -> n + List.length sl.replay_s) 0 done_)) "count";
    Bench.report "farm_replay_ms" (Stats.median (Array.of_list medians)) "ms";
    Bench.report "farm_slowest_scenario_ms" (List.fold_left Float.max 0.0 medians) "ms";
    Bench.report "farm_availability" avail "ratio";
    [
      ("op_ms", Stats.geomean medians);
      (* The mean of the slowest quarter of all replays, about two
         scenarios' worth.  The slowest scenario's median alone rests on
         3-4 replays: over ten runs its ratio to [op_ms] had an IQR of
         15 % of its median. *)
      ("tail_ms", ms (Stats.tail_mean 75.0 (Array.of_list !plain)));
      ("ops_per_s", float_of_int scenarios /. Stats.median (Array.of_list !round_s));
      ("quality", avail);
      ("setup_s", setup_s);
    ]
  end
  else begin
    (* Counters sum over one replay of every scenario; Farm.stats is a
       pure function of the scenario. *)
    let sum f = List.fold_left (fun acc st -> acc +. float_of_int (f st)) 0.0 stats in
    let tenant_sum f = sum (fun st -> List.fold_left (fun acc r -> acc + f r) 0 st.Farm.tenants) in
    let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0 in
    let reused = sum (fun st -> st.Farm.reused) in
    let replacements = tenant_sum (fun r -> r.Farm.replacements) in
    let hits = sum (fun st -> st.Farm.frag_hits) and misses = sum (fun st -> st.Farm.frag_misses) in
    let mean_ttr =
      match List.filter_map Farm.mean_ttr_s stats with
      | [] -> 0.0
      | ttrs -> List.fold_left ( +. ) 0.0 ttrs /. float_of_int (List.length ttrs)
    in
    let med l = Stats.median (Array.of_list l) in
    [
      ("farm.attempts", tenant_sum (fun r -> r.Farm.attempts));
      ("farm.replacements", replacements);
      ("farm.reused", reused);
      ("farm.reuse_frac", ratio reused replacements);
      ("farm.frag_hits", hits);
      ("farm.frag_misses", misses);
      ("farm.frag_hit_frac", ratio hits misses);
      ("farm.groups_resolved", sum (fun st -> st.Farm.groups_resolved));
      ("farm.mean_ttr_s", mean_ttr);
      ("trace.uncovered_ms", ms (med !uncovered));
      ("trace.overhead_ms", ms (med !traced -. med !plain));
    ]
  end
