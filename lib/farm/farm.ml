open Tapa_cs_device
module Fault = Tapa_cs_network.Fault
module If = Tapa_cs_floorplan.Inter_fpga
module Synthesis = Tapa_cs_hls.Synthesis

type health = Healthy | Degraded | Down

let health_label = function Healthy -> "healthy" | Degraded -> "degraded" | Down -> "down"

type config = {
  threshold : float;
  seed : int;
  max_retries : int;
  backoff_s : float;
  horizon_s : float;
}

let default_config =
  {
    threshold = Constants.utilization_threshold;
    seed = 1;
    max_retries = 3;
    backoff_s = 5.0;
    horizon_s = 600.0;
  }

type tenant_report = {
  tenant : Tenant.t;
  final_health : health;
  failed_over : bool;
  gave_up : bool;
  placements : int;
  replacements : int;
  attempts : int;
  healthy_s : float;
  degraded_s : float;
  down_s : float;
  devices : int list;
}

type fault_report = {
  at_s : float;
  event : string;
  displaced : int list;
  ttr_s : float option;
}

type sample = {
  t_s : float;
  label : string;
  placed : int;
  dead_devices : int;
  utilization : float;
  fragmentation : float;
  max_link_sharers : int;
}

type stats = {
  boards : int;
  horizon_s : float;
  seed : int;
  tenants : tenant_report list;
  faults : fault_report list;
  timeline : sample list;
  reused : int;
  frag_hits : int;
  frag_misses : int;
  groups_resolved : int;
}

(* ------------------------------------------------------------------ *)
(* Internal controller state *)

type tstate = {
  spec : Tenant.t;
  mutable synthesis : Synthesis.report option;
  mutable placement : If.t option;
  mutable baseline : (int -> int -> int) option;
      (* survivor-hops snapshot at placement time, the [If.affected] input *)
  mutable clean : bool;  (* no relaxed-threshold / greedy rung fired *)
  mutable connected : bool;  (* every cut pair routable when placed *)
  mutable health : health;
  mutable arrived : bool;
  mutable last_t : float;
  mutable healthy_s : float;
  mutable degraded_s : float;
  mutable down_s : float;
  mutable attempts : int;  (* consecutive failures since the last success *)
  mutable total_attempts : int;
  mutable placements : int;
  mutable replacements : int;
  mutable gave_up : bool;
  mutable retry_at : float option;
  mutable failed_over : bool;
}

type frecord = {
  f_at : float;
  f_event : string;
  f_displaced : int list;
  mutable f_pending : int list;
  mutable f_abandoned : bool;
  mutable f_recovered_at : float option;
}

let norm_pair (a, b) = (min a b, max a b)

let run ?pool ?(config = default_config) ~cluster ~timeline tenants =
  (* Start from cold caches so every counter in the emitted stats —
     including the fragment-cache fields below — is a pure function of
     (cluster, workload, timeline, config), never of what ran earlier in
     the process.  That is the byte-identity contract farmgate pins
     across repeats and [--jobs] values. *)
  Tapa_cs_floorplan.Partition.reset_cache ();
  let k = Cluster.size cluster in
  let horizon = config.horizon_s in
  let states =
    tenants
    |> List.filter (fun (t : Tenant.t) -> t.arrival_s <= horizon)
    |> List.sort (fun (a : Tenant.t) (b : Tenant.t) ->
           compare (a.arrival_s, a.id) (b.arrival_s, b.id))
    |> List.map (fun spec ->
           {
             spec;
             synthesis = None;
             placement = None;
             baseline = None;
             clean = false;
             connected = false;
             health = Down;
             arrived = false;
             last_t = spec.Tenant.arrival_s;
             healthy_s = 0.0;
             degraded_s = 0.0;
             down_s = 0.0;
             attempts = 0;
             total_attempts = 0;
             placements = 0;
             replacements = 0;
             gave_up = false;
             retry_at = None;
             failed_over = false;
           })
  in
  let view = ref (Cluster.full_view cluster) in
  let down_links = ref [] in
  let loss = ref 0.0 in
  let reused = ref 0 in
  let faults : frecord list ref = ref [] in
  let samples = ref [] in

  let synth_of st =
    match st.synthesis with
    | Some s -> s
    | None ->
      let s = Synthesis.run ~board:(Cluster.board cluster 0) ?pool st.spec.Tenant.graph in
      st.synthesis <- Some s;
      s
  in
  let owned st = match st.placement with Some p -> If.devices_used p | None -> [] in
  let masked_for st =
    List.concat_map (fun o -> if o == st then [] else owned o) states
  in
  let compute_health st =
    match st.placement with
    | None -> Down
    | Some p ->
      if not st.connected then Degraded
      else if not st.clean then Degraded
      else if !loss > 0.0 && p.If.cut_fifos <> [] then Degraded
      else Healthy
  in
  let update_health () =
    List.iter (fun st -> if st.arrived then st.health <- compute_health st) states
  in
  let accrue t =
    List.iter
      (fun st ->
        if st.arrived && t > st.last_t then begin
          let d = t -. st.last_t in
          (match st.health with
          | Healthy -> st.healthy_s <- st.healthy_s +. d
          | Degraded -> st.degraded_s <- st.degraded_s +. d
          | Down -> st.down_s <- st.down_s +. d);
          st.last_t <- t
        end)
      states
  in
  let note_recovered t st =
    List.iter
      (fun f ->
        if List.mem st.spec.Tenant.id f.f_pending then begin
          f.f_pending <- List.filter (fun id -> id <> st.spec.Tenant.id) f.f_pending;
          if f.f_pending = [] && not f.f_abandoned then f.f_recovered_at <- Some t
        end)
      !faults
  in
  let note_gave_up st =
    List.iter
      (fun f ->
        if List.mem st.spec.Tenant.id f.f_pending then begin
          f.f_pending <- List.filter (fun id -> id <> st.spec.Tenant.id) f.f_pending;
          f.f_abandoned <- true
        end)
      !faults
  in
  let fail_attempt t st =
    st.attempts <- st.attempts + 1;
    if st.attempts > config.max_retries then begin
      st.gave_up <- true;
      st.retry_at <- None;
      note_gave_up st
    end
    else
      st.retry_at <- Some (t +. (config.backoff_s *. (2.0 ** float_of_int (st.attempts - 1))))
  in
  let acceptable st ~clean ~connected =
    match st.spec.Tenant.slo with Tenant.Best_effort -> true | Tenant.Strict -> clean && connected
  in
  let install t st (p : If.t) =
    let failed = Cluster.failed_devices !view in
    let hops = If.survivor_hops ~failed_devices:failed ~failed_links:!down_links cluster in
    let clean =
      p.If.threshold_used <= config.threshold +. 1e-9
      && not (List.mem "greedy" p.If.fallbacks)
    in
    let connected =
      List.for_all (fun (i, j) -> hops i j < If.unreachable_dist) (If.cut_pairs p)
    in
    if not (acceptable st ~clean ~connected) then false
    else begin
      let prev_devices = owned st in
      (match st.placement with
      | Some _ ->
        st.replacements <- st.replacements + 1;
        if If.devices_used p <> prev_devices then st.failed_over <- true
      | None -> if st.placements > 0 then st.failed_over <- true);
      st.placement <- Some p;
      st.baseline <- Some hops;
      st.clean <- clean;
      st.connected <- connected;
      st.placements <- st.placements + 1;
      st.attempts <- 0;
      st.retry_at <- None;
      note_recovered t st;
      true
    end
  in
  (* Fresh placement of an unplaced tenant: every board another tenant
     owns is masked (still routable, receives no tasks), every dead board
     is failed.  Seeds derive from (farm seed, tenant, attempt) so a farm
     run is one deterministic function of its inputs. *)
  let admit t st =
    if st.placement = None && not st.gave_up then begin
      let synthesis = synth_of st in
      let seed = config.seed + (1009 * st.spec.Tenant.id) + st.total_attempts in
      st.total_attempts <- st.total_attempts + 1;
      match
        If.run_degraded ~seed ~threshold:config.threshold ?pool
          ~failed_devices:(Cluster.failed_devices !view) ~failed_links:!down_links
          ~masked_devices:(masked_for st) ~cluster ~synthesis st.spec.Tenant.graph
      with
      | Ok p -> if not (install t st p) then fail_attempt t st
      | Error _ -> fail_attempt t st
    end
  in
  (* Re-placement round after a fleet change: [If.replace] returns the
     previous placement physically unchanged when the change does not
     touch this tenant (the cache-reuse fast path); otherwise it re-solves
     warm-started from the old assignment.  A strict tenant whose only
     feasible re-placement is dirty loses its boards and joins the retry
     queue instead of running degraded silently. *)
  let refresh t st =
    match st.placement with
    | None -> false
    | Some prev -> (
      let synthesis = synth_of st in
      let seed = config.seed + (1009 * st.spec.Tenant.id) + st.total_attempts in
      match
        If.replace ~seed ~threshold:config.threshold ?pool
          ~failed_devices:(Cluster.failed_devices !view) ~failed_links:!down_links
          ~masked_devices:(masked_for st) ?baseline:st.baseline ~prev ~cluster ~synthesis
          st.spec.Tenant.graph
      with
      | Ok p when p == prev ->
        incr reused;
        false
      | Ok p ->
        st.total_attempts <- st.total_attempts + 1;
        if not (install t st p) then begin
          st.placement <- None;
          st.baseline <- None;
          fail_attempt t st
        end;
        true
      | Error _ ->
        st.total_attempts <- st.total_attempts + 1;
        st.placement <- None;
        st.baseline <- None;
        fail_attempt t st;
        true)
  in
  (* Strict tenants re-place first (they have the failover claim on spare
     capacity), then best-effort, both in id order. *)
  let in_slo_order f =
    let rank st = match st.spec.Tenant.slo with Tenant.Strict -> 0 | Tenant.Best_effort -> 1 in
    List.iter f
      (List.stable_sort (fun a b -> compare (rank a, a.spec.Tenant.id) (rank b, b.spec.Tenant.id)) states)
  in
  let retry_pending t =
    in_slo_order (fun st ->
        if st.arrived && st.placement = None && not st.gave_up then admit t st)
  in
  let apply_fleet_event t ev =
    let displaced = ref [] in
    let refresh_all () =
      in_slo_order (fun st ->
          if st.arrived && refresh t st then displaced := st.spec.Tenant.id :: !displaced)
    in
    (match ev with
    | Fault.Device_down d ->
      view := Cluster.prune_device !view d;
      refresh_all ()
    | Fault.Device_up d ->
      view := Cluster.restore_device !view d;
      retry_pending t;
      (* Placed-but-degraded tenants try to climb back to a clean mapping
         on the recovered fleet. *)
      in_slo_order (fun st ->
          if st.arrived && st.placement <> None && compute_health st = Degraded then
            ignore (refresh t st))
    | Fault.Link_down l ->
      let l = norm_pair l in
      if not (List.mem l !down_links) then down_links := List.sort compare (l :: !down_links);
      refresh_all ()
    | Fault.Link_up l ->
      let l = norm_pair l in
      down_links := List.filter (fun x -> x <> l) !down_links;
      retry_pending t;
      in_slo_order (fun st ->
          if st.arrived && st.placement <> None && compute_health st = Degraded then
            ignore (refresh t st))
    | Fault.Loss_rate r -> loss := r);
    let displaced = List.sort compare !displaced in
    match ev with
    | Fault.Device_down _ | Fault.Link_down _ ->
      let pending =
        List.filter_map
          (fun st ->
            if List.mem st.spec.Tenant.id displaced && st.placement = None && not st.gave_up
            then Some st.spec.Tenant.id
            else None)
          states
      in
      let abandoned =
        List.exists
          (fun st -> List.mem st.spec.Tenant.id displaced && st.gave_up)
          states
      in
      faults :=
        {
          f_at = t;
          f_event = Fault.describe_event ev;
          f_displaced = displaced;
          f_pending = pending;
          f_abandoned = abandoned;
          f_recovered_at = (if pending = [] && not abandoned then Some t else None);
        }
        :: !faults
    | _ -> ()
  in
  (* Deterministic shortest routes (BFS, lowest-index tie-break) of every
     placed tenant's cut pairs over the live topology; the per-physical-
     link tenant count is the bandwidth-sharing exposure co-location
     creates. *)
  let link_sharing () =
    let adj v w =
      Cluster.alive !view v && Cluster.alive !view w
      && Cluster.dist cluster v w = 1
      && not (List.mem (norm_pair (v, w)) !down_links)
    in
    let route src dst =
      if src = dst then Some []
      else begin
        let parent = Array.make k (-1) in
        let seen = Array.make k false in
        seen.(src) <- true;
        let q = Queue.create () in
        Queue.add src q;
        while not (Queue.is_empty q) do
          let v = Queue.pop q in
          for w = 0 to k - 1 do
            if (not seen.(w)) && adj v w then begin
              seen.(w) <- true;
              parent.(w) <- v;
              Queue.add w q
            end
          done
        done;
        if not seen.(dst) then None
        else begin
          let rec back v acc = if v = src then acc else back parent.(v) (norm_pair (parent.(v), v) :: acc) in
          Some (back dst [])
        end
      end
    in
    let counts = Hashtbl.create 64 in
    List.iter
      (fun st ->
        match st.placement with
        | None -> ()
        | Some p ->
          let edges =
            List.concat_map
              (fun (i, j) -> match route i j with Some es -> es | None -> [])
              (If.cut_pairs p)
            |> List.sort_uniq compare
          in
          List.iter
            (fun e -> Hashtbl.replace counts e (1 + Option.value ~default:0 (Hashtbl.find_opt counts e)))
            edges)
      states;
    Hashtbl.fold (fun _ n acc -> max n acc) counts 0
  in
  let sample t label =
    let alive = Cluster.alive_devices !view in
    let owned_alive =
      List.concat_map owned states |> List.filter (Cluster.alive !view) |> List.sort_uniq compare
    in
    let utilization =
      if alive = [] then 0.0
      else float_of_int (List.length owned_alive) /. float_of_int (List.length alive)
    in
    let free = List.filter (fun d -> not (List.mem d owned_alive)) alive in
    let fragmentation =
      if free = [] then 0.0
      else begin
        let per_node = Hashtbl.create 8 in
        List.iter
          (fun d ->
            let n = cluster.Cluster.node_of d in
            Hashtbl.replace per_node n (1 + Option.value ~default:0 (Hashtbl.find_opt per_node n)))
          free;
        let largest = Hashtbl.fold (fun _ n acc -> max n acc) per_node 0 in
        1.0 -. (float_of_int largest /. float_of_int (List.length free))
      end
    in
    samples :=
      {
        t_s = t;
        label;
        placed = List.length (List.filter (fun st -> st.placement <> None) states);
        dead_devices = k - Cluster.num_alive !view;
        utilization;
        fragmentation;
        max_link_sharers = link_sharing ();
      }
      :: !samples
  in

  (* --------------------------------------------------------------- *)
  (* Event loop: fleet events, arrivals and scheduled retries merged in
     time order; ties resolve fleet-first (the fault is visible to the
     placement it displaces), then arrivals, then retries, each in a
     fixed id order.  Pure simulated time — nothing here reads a clock. *)
  let fleet = ref (List.filter (fun (t, _) -> t <= horizon) (Fault.timeline_events timeline)) in
  let pending_arrivals = ref states in
  let next_time () =
    let cands =
      (match !fleet with (t, _) :: _ -> [ t ] | [] -> [])
      @ (match !pending_arrivals with st :: _ -> [ st.spec.Tenant.arrival_s ] | [] -> [])
      @ List.filter_map (fun st -> if st.gave_up then None else st.retry_at) states
    in
    match cands with [] -> None | l -> Some (List.fold_left Float.min infinity l)
  in
  let rec step () =
    match next_time () with
    | None -> ()
    | Some t when t > horizon -> ()
    | Some t ->
      accrue t;
      let labels = ref [] in
      let rec drain_fleet () =
        match !fleet with
        | (te, ev) :: rest when te <= t ->
          fleet := rest;
          labels := Fault.describe_event ev :: !labels;
          apply_fleet_event t ev;
          drain_fleet ()
        | _ -> ()
      in
      drain_fleet ();
      let rec drain_arrivals () =
        match !pending_arrivals with
        | st :: rest when st.spec.Tenant.arrival_s <= t ->
          pending_arrivals := rest;
          st.arrived <- true;
          st.last_t <- t;
          labels := Printf.sprintf "arrive(%s#%d)" st.spec.Tenant.name st.spec.Tenant.id :: !labels;
          admit t st;
          drain_arrivals ()
        | _ -> ()
      in
      drain_arrivals ();
      let retried = ref false in
      in_slo_order (fun st ->
          match st.retry_at with
          | Some tr when tr <= t && st.placement = None && not st.gave_up ->
            st.retry_at <- None;
            retried := true;
            admit t st
          | _ -> ());
      if !retried then labels := "retry" :: !labels;
      update_health ();
      sample t (String.concat "; " (List.rev !labels));
      step ()
  in
  update_health ();
  step ();
  accrue horizon;

  let tenant_reports =
    List.map
      (fun st ->
        {
          tenant = st.spec;
          final_health = st.health;
          failed_over = st.failed_over;
          gave_up = st.gave_up;
          placements = st.placements;
          replacements = st.replacements;
          attempts = st.total_attempts;
          healthy_s = st.healthy_s;
          degraded_s = st.degraded_s;
          down_s = st.down_s;
          devices = owned st;
        })
      (List.sort (fun a b -> compare a.spec.Tenant.id b.spec.Tenant.id) states)
  in
  let fault_reports =
    List.rev_map
      (fun f ->
        {
          at_s = f.f_at;
          event = f.f_event;
          displaced = f.f_displaced;
          ttr_s = Option.map (fun r -> r -. f.f_at) f.f_recovered_at;
        })
      !faults
  in
  (* Fragment counters since the reset at entry: single-flight makes the
     hit/miss totals a pure function of the subproblem multiset, so they
     are identical across repeats and [--jobs] values. *)
  let fs = Tapa_cs_floorplan.Partition.fragment_stats () in
  {
    boards = k;
    horizon_s = horizon;
    seed = config.seed;
    tenants = tenant_reports;
    faults = fault_reports;
    timeline = List.rev !samples;
    reused = !reused;
    frag_hits = fs.Tapa_cs_floorplan.Partition.frag_hits;
    frag_misses = fs.Tapa_cs_floorplan.Partition.frag_misses;
    groups_resolved = fs.Tapa_cs_floorplan.Partition.groups_resolved;
  }

(* ------------------------------------------------------------------ *)
(* Summaries *)

let total_tenant_s stats =
  List.fold_left
    (fun acc (r : tenant_report) -> acc +. r.healthy_s +. r.degraded_s +. r.down_s)
    0.0 stats.tenants

let mean_ttr_s stats =
  let ttrs = List.filter_map (fun f -> f.ttr_s) stats.faults in
  match ttrs with
  | [] -> None
  | l -> Some (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l))

(* ------------------------------------------------------------------ *)
(* Machine-readable stats.  Deliberately free of wall-clock fields
   (solver runtimes etc.) so the emitted bytes are a pure function of
   (cluster, workload, timeline, config) — the determinism contract the
   farmgate pins across runs and [--jobs] values. *)

let stats_json stats =
  let open Tapa_cs_util.Json in
  let opt_float = function None -> Null | Some v -> Float v in
  let ints l = List (List.map (fun d -> Int d) l) in
  let tenant r =
    Obj
      [
        ("id", Int r.tenant.Tenant.id);
        ("name", String r.tenant.Tenant.name);
        ("slo", String (Tenant.slo_label r.tenant.Tenant.slo));
        ("arrival_s", Float r.tenant.Tenant.arrival_s);
        ("final_health", String (health_label r.final_health));
        ("failed_over", Bool r.failed_over);
        ("gave_up", Bool r.gave_up);
        ("placements", Int r.placements);
        ("replacements", Int r.replacements);
        ("attempts", Int r.attempts);
        ("healthy_s", Float r.healthy_s);
        ("degraded_s", Float r.degraded_s);
        ("down_s", Float r.down_s);
        ("devices", ints r.devices);
      ]
  in
  let fault f =
    Obj
      [
        ("at_s", Float f.at_s);
        ("event", String f.event);
        ("displaced", ints f.displaced);
        ("ttr_s", opt_float f.ttr_s);
      ]
  in
  let sample s =
    Obj
      [
        ("t_s", Float s.t_s);
        ("label", String s.label);
        ("placed", Int s.placed);
        ("dead_devices", Int s.dead_devices);
        ("utilization", Float s.utilization);
        ("fragmentation", Float s.fragmentation);
        ("max_link_sharers", Int s.max_link_sharers);
      ]
  in
  to_string
    (Obj
       [
         ("boards", Int stats.boards);
         ("horizon_s", Float stats.horizon_s);
         ("seed", Int stats.seed);
         ("reused_placements", Int stats.reused);
         ("frag_hits", Int stats.frag_hits);
         ("frag_misses", Int stats.frag_misses);
         ("groups_resolved", Int stats.groups_resolved);
         ("total_tenant_s", Float (total_tenant_s stats));
         ("mean_ttr_s", opt_float (mean_ttr_s stats));
         ("tenants", List (List.map tenant stats.tenants));
         ("faults", List (List.map fault stats.faults));
         ("timeline", List (List.map sample stats.timeline));
       ])

let pp_summary fmt stats =
  let n = List.length stats.tenants in
  let healthy =
    List.length (List.filter (fun r -> r.final_health = Healthy) stats.tenants)
  in
  let degraded =
    List.length (List.filter (fun r -> r.final_health = Degraded) stats.tenants)
  in
  let down = n - healthy - degraded in
  Format.fprintf fmt
    "farm: %d board(s), %d tenant(s) over %.0f s: %d healthy, %d degraded, %d down@." stats.boards
    n stats.horizon_s healthy degraded down;
  let t = total_tenant_s stats in
  let h = List.fold_left (fun a (r : tenant_report) -> a +. r.healthy_s) 0.0 stats.tenants in
  let d = List.fold_left (fun a (r : tenant_report) -> a +. r.degraded_s) 0.0 stats.tenants in
  let dn = List.fold_left (fun a (r : tenant_report) -> a +. r.down_s) 0.0 stats.tenants in
  if t > 0.0 then
    Format.fprintf fmt
      "  tenant-time: %.1f s total = %.1f healthy + %.1f degraded + %.1f down (%.1f%% available)@."
      t h d dn
      (100.0 *. (h +. d) /. t);
  Format.fprintf fmt "  faults: %d; " (List.length stats.faults);
  (match mean_ttr_s stats with
  | None -> Format.fprintf fmt "no recoveries measured"
  | Some m -> Format.fprintf fmt "mean time-to-recover %.1f s" m);
  Format.fprintf fmt "; %d placement(s) reused unchanged@." stats.reused;
  List.iter
    (fun r ->
      if r.final_health <> Healthy || r.failed_over then
        Format.fprintf fmt "  tenant %d (%s, %s): %s%s%s@." r.tenant.Tenant.id
          r.tenant.Tenant.name
          (Tenant.slo_label r.tenant.Tenant.slo)
          (health_label r.final_health)
          (if r.failed_over then ", failed over" else "")
          (if r.gave_up then ", gave up after retry budget" else ""))
    stats.tenants
