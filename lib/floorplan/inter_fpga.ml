open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls
module Network = Tapa_cs_network

type t = {
  assignment : int array;
  cut_fifos : Fifo.t list;
  traffic_bytes : float;
  per_fpga_usage : Resource.t array;
  per_fpga_util : float array;
  cost : float;
  stats : Partition.stats;
  fallbacks : string list;
  threshold_used : float;
}

type error = Infeasible | Over_capacity of int | Solver_timeout

let error_code = function
  | Infeasible -> "TCS305"
  | Over_capacity _ -> "TCS306"
  | Solver_timeout -> "TCS307"

let error_message = function
  | Infeasible ->
    "design does not fit the cluster under the utilization threshold (placement failure)"
  | Over_capacity n ->
    Printf.sprintf "best mapping leaves %d device(s) over capacity (placement failure)" n
  | Solver_timeout -> "floorplan solver hit its deadline without a feasible incumbent"

let pp_error ppf e = Format.fprintf ppf "[%s] %s" (error_code e) (error_message e)

let capacities ~threshold cluster =
  let k = Cluster.size cluster in
  Array.init k (fun i ->
      let board = Cluster.board cluster i in
      let cap = Resource.scale threshold board.Board.total in
      if k > 1 then begin
        (* Both QSFP ports carry the networking IPs once the design spans
           devices. *)
        let per_port = Network.Protocol.alveolink_port_overhead board in
        Resource.sub cap (Resource.scale_int board.Board.num_qsfp per_port)
      end
      else cap)

(* Topology-aware distance penalty: pairs straddling server nodes ride the
   ~10x slower 10 Gb/s host path (§5.7) — the λ media-scaling of Eq. 2. *)
let node_penalty = 10

(* Surrogate hop count for device pairs the surviving topology cannot
   connect at all: finite (the partitioner must still return an answer)
   but large enough that any connected alternative wins. *)
let unreachable_dist = 1000

(* How far past its capacity each part ends up under [r.assignment] —
   the payload of [Over_capacity]. *)
let over_capacity_count (p : Partition.problem) (r : Partition.result) =
  let usage = Array.make p.k Resource.zero in
  Array.iteri
    (fun tid part -> usage.(part) <- Resource.add usage.(part) p.areas.(tid))
    r.assignment;
  let n = ref 0 in
  Array.iteri
    (fun part u -> if not (Resource.fits u ~within:p.capacities.(part)) then incr n)
    usage;
  !n

(* The graceful-degradation chain (tentpole §3): the primary solve, then
   warm-started re-solves climbing a threshold-relaxation ladder toward the
   routability ceiling, then the deterministic greedy packer (tried at the
   base and at the most-relaxed capacities).  Every rung that fires is
   recorded as a fallback tag so the compiler can report degraded
   operation.  [relax_limit] stops short of physical capacity: past ~95 %
   the frequency model cannot route the device anyway. *)
let relax_step = 0.05
let relax_limit = 0.95

let solve_chain ~strategy ~seed ~threshold ?pool ?groups ?warm ~problem_at () =
  let p0 = problem_at threshold in
  let attempts = ref [] in
  let record p att =
    attempts := (p, att) :: !attempts;
    att
  in
  let rec climb ~warm th =
    let p = problem_at th in
    match record p (Partition.solve ~strategy ~seed ?warm_incumbent:warm ?pool ?groups p) with
    | Some r when r.Partition.feasible ->
      let tags = if th > threshold then [ Printf.sprintf "relaxed-threshold(%.2f)" th ] else [] in
      Ok (r, p, th, tags)
    | att ->
      let next = th +. relax_step in
      if next <= relax_limit +. 1e-9 then
        climb ~warm:(Option.map (fun (r : Partition.result) -> r.assignment) att) next
      else greedy_rungs ()
  and greedy_rungs () =
    match record p0 (Partition.greedy p0) with
    | Some r when r.Partition.feasible -> Ok (r, p0, threshold, [ "greedy" ])
    | _ -> (
      let relaxed = Float.max threshold relax_limit in
      let pmax = problem_at relaxed in
      match record pmax (Partition.greedy pmax) with
      | Some r when r.Partition.feasible ->
        Ok (r, pmax, relaxed, [ "greedy"; Printf.sprintf "relaxed-threshold(%.2f)" relaxed ])
      | _ ->
        let overflow_counts =
          List.filter_map
            (fun (p, att) ->
              Option.map (fun (r : Partition.result) -> over_capacity_count p r) att)
            !attempts
        in
        Error
          (match overflow_counts with
          | [] -> Infeasible
          | counts -> Over_capacity (List.fold_left min max_int counts)))
  in
  climb ~warm threshold

(* Shared post-processing: project a partition result back onto the full
   cluster.  [to_device] maps part indices to device indices (identity for
   the healthy cluster, survivor lookup when degraded); [hop_dist] is the
   hop metric of the (possibly pruned) topology. *)
let build ~cluster ~areas ~to_device ~hop_dist ~fallbacks ~threshold_used g (r : Partition.result) =
  let k = Cluster.size cluster in
  let assignment = Array.map to_device r.Partition.assignment in
  let cut_fifos =
    Array.to_list (Taskgraph.fifos g)
    |> List.filter (fun (f : Fifo.t) -> assignment.(f.src) <> assignment.(f.dst))
  in
  let traffic_bytes =
    List.fold_left
      (fun acc (f : Fifo.t) ->
        let hops = hop_dist assignment.(f.src) assignment.(f.dst) in
        acc +. (Fifo.traffic_bytes f *. float_of_int hops))
      0.0 cut_fifos
  in
  let per_fpga_usage = Array.make k Resource.zero in
  Array.iteri
    (fun tid fpga -> per_fpga_usage.(fpga) <- Resource.add per_fpga_usage.(fpga) areas.(tid))
    assignment;
  let per_fpga_util =
    Array.mapi
      (fun i u -> Resource.utilization u ~total:(Cluster.board cluster i).Board.total)
      per_fpga_usage
  in
  {
    assignment;
    cut_fifos;
    traffic_bytes;
    per_fpga_usage;
    per_fpga_util;
    cost = r.Partition.cost;
    stats = r.Partition.stats;
    fallbacks;
    threshold_used;
  }

let edges_of ~cluster g =
  let lambda = Cluster.lambda cluster in
  Array.to_list (Taskgraph.fifos g)
  |> List.map (fun (f : Fifo.t) -> (f.src, f.dst, float_of_int f.width_bits *. lambda))

(* Server-node grouping for the hierarchical decomposition: one group per
   node, meaningful only when the cluster actually spans nodes.  The
   mapping is a pure function of the cluster (and, degraded, of the
   survivor list), so the cache key stays stable across runs. *)
let node_groups ~cluster ~part_device k =
  if cluster.Cluster.num_nodes > 1 then
    Some (Array.init k (fun part -> cluster.Cluster.node_of (part_device part)))
  else None

let run ?(strategy = Partition.Auto) ?(threshold = Constants.utilization_threshold) ?(seed = 1)
    ?pool ~cluster ~synthesis g =
  let k = Cluster.size cluster in
  let areas = Array.map (fun (p : Synthesis.profile) -> p.resources) synthesis.Synthesis.profiles in
  let edges = edges_of ~cluster g in
  let dist i j =
    let d = Cluster.dist cluster i j in
    if d = 0 || Cluster.same_node cluster i j then d else d * node_penalty
  in
  let problem_at threshold =
    {
      Partition.areas;
      edges;
      pulls = [];
      k;
      capacities = capacities ~threshold cluster;
      dist;
      fixed = [];
    }
  in
  let groups = node_groups ~cluster ~part_device:Fun.id k in
  match solve_chain ~strategy ~seed ~threshold ?pool ?groups ~problem_at () with
  | Error e -> Error e
  | Ok (r, _, threshold_used, fallbacks) ->
    Ok
      (build ~cluster ~areas ~to_device:Fun.id ~hop_dist:(Cluster.dist cluster) ~fallbacks
         ~threshold_used g r)

(* Hop metric of the surviving sub-topology: BFS over the healthy
   unit-distance edges of the original cluster, skipping failed devices
   and downed links.  Disconnected pairs get a large finite distance so
   the partitioner avoids (but survives) them. *)
let survivor_hops ?(failed_devices = []) ?(failed_links = []) cluster =
  let k = Cluster.size cluster in
  let failed = Array.make k false in
  List.iter (fun d -> if d >= 0 && d < k then failed.(d) <- true) failed_devices;
  let failed_links =
    List.sort_uniq compare (List.map (fun (a, b) -> (min a b, max a b)) failed_links)
  in
  let routable = Array.of_list (List.filter (fun i -> not failed.(i)) (List.init k Fun.id)) in
  let link_up i j =
    Cluster.dist cluster i j = 1 && not (List.mem (min i j, max i j) failed_links)
  in
  let hops = Array.make_matrix k k unreachable_dist in
  Array.iter
    (fun s ->
      let dist_from = Array.make k (-1) in
      dist_from.(s) <- 0;
      let q = Queue.create () in
      Queue.add s q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        Array.iter
          (fun w ->
            if dist_from.(w) < 0 && link_up v w then begin
              dist_from.(w) <- dist_from.(v) + 1;
              Queue.add w q
            end)
          routable
      done;
      Array.iter (fun d -> if dist_from.(d) >= 0 then hops.(s).(d) <- dist_from.(d)) routable)
    routable;
  fun i j ->
    if i = j then 0
    else if i < 0 || j < 0 || i >= k || j >= k then unreachable_dist
    else hops.(i).(j)

let run_degraded ?(strategy = Partition.Auto) ?(threshold = Constants.utilization_threshold)
    ?(seed = 1) ?pool ?(failed_devices = []) ?(failed_links = []) ?(masked_devices = [])
    ?warm_assignment ~cluster ~synthesis g =
  let k = Cluster.size cluster in
  let failed = Array.make k false in
  List.iter (fun d -> if d >= 0 && d < k then failed.(d) <- true) failed_devices;
  (* Masked devices stay routable (they still forward packets for their
     own tenants) but receive no tasks; a device both failed and masked
     counts as failed. *)
  let masked = Array.make k false in
  List.iter (fun d -> if d >= 0 && d < k && not failed.(d) then masked.(d) <- true) masked_devices;
  let failed_links =
    List.sort_uniq compare (List.map (fun (a, b) -> (min a b, max a b)) failed_links)
  in
  let placeable = List.filter (fun i -> not failed.(i) && not masked.(i)) (List.init k Fun.id) in
  let num_failed = Array.fold_left (fun n b -> if b then n + 1 else n) 0 failed in
  match placeable with
  | [] -> Error Infeasible
  | _ ->
    let surv = Array.of_list placeable in
    let k' = Array.length surv in
    if k' = k && failed_links = [] then run ~strategy ~threshold ~seed ?pool ~cluster ~synthesis g
    else begin
      let hop_dist = survivor_hops ~failed_devices ~failed_links cluster in
      let areas =
        Array.map (fun (p : Synthesis.profile) -> p.resources) synthesis.Synthesis.profiles
      in
      let edges = edges_of ~cluster g in
      let dist a b =
        if a = b then 0
        else begin
          let i = surv.(a) and j = surv.(b) in
          let d = hop_dist i j in
          if Cluster.same_node cluster i j then d else d * node_penalty
        end
      in
      let problem_at threshold =
        let caps = capacities ~threshold cluster in
        {
          Partition.areas;
          edges;
          pulls = [];
          k = k';
          capacities = Array.map (fun i -> caps.(i)) surv;
          dist;
          fixed = [];
        }
      in
      let groups = node_groups ~cluster ~part_device:(fun part -> surv.(part)) k' in
      (* A previous device-space assignment warm-starts the ladder: tasks
         stranded on dead or masked devices fall back to part 0 and rely
         on the partitioner dropping infeasible incumbents silently. *)
      let warm =
        Option.map
          (fun prev ->
            let part_of = Array.make k 0 in
            Array.iteri (fun part d -> part_of.(d) <- part) surv;
            Array.map
              (fun d ->
                if d >= 0 && d < k && not failed.(d) && not masked.(d) then part_of.(d) else 0)
              prev)
          warm_assignment
      in
      match solve_chain ~strategy ~seed ~threshold ?pool ?groups ?warm ~problem_at () with
      | Error e -> Error e
      | Ok (r, _, threshold_used, fallbacks) ->
        let fallbacks =
          (* Masking alone is normal multi-tenant operation, not
             degradation — tag only when real faults shrank the fleet. *)
          if num_failed = 0 && failed_links = [] then fallbacks
          else
            Printf.sprintf "degraded(%d/%d FPGAs%s)" (k - num_failed) k
              (match failed_links with
              | [] -> ""
              | l -> Printf.sprintf ", %d links down" (List.length l))
            :: fallbacks
        in
        Ok
          (build ~cluster ~areas ~to_device:(fun part -> surv.(part)) ~hop_dist ~fallbacks
             ~threshold_used g r)
    end

let devices_used t =
  let k = Array.length t.per_fpga_usage in
  let used = Array.make k false in
  Array.iter (fun d -> if d >= 0 && d < k then used.(d) <- true) t.assignment;
  List.filter (fun d -> used.(d)) (List.init k Fun.id)

let cut_pairs t =
  List.sort_uniq compare
    (List.map
       (fun (f : Fifo.t) ->
         let a = t.assignment.(f.src) and b = t.assignment.(f.dst) in
         (min a b, max a b))
       t.cut_fifos)

let affected ~alive ~hops ~baseline t =
  List.exists (fun d -> not (alive d)) (devices_used t)
  || List.exists (fun (i, j) -> hops i j <> baseline i j) (cut_pairs t)

let replace ?strategy ?threshold ?seed ?pool ?(failed_devices = []) ?(failed_links = [])
    ?(masked_devices = []) ?baseline ~prev ~cluster ~synthesis g =
  let k = Cluster.size cluster in
  let unusable = Array.make k false in
  List.iter (fun d -> if d >= 0 && d < k then unusable.(d) <- true) failed_devices;
  List.iter (fun d -> if d >= 0 && d < k then unusable.(d) <- true) masked_devices;
  let reusable =
    match baseline with
    | None -> false
    | Some base ->
      let hops = survivor_hops ~failed_devices ~failed_links cluster in
      affected
        ~alive:(fun d -> d >= 0 && d < k && not unusable.(d))
        ~hops ~baseline:base prev
      |> not
  in
  if reusable then Ok prev
  else
    run_degraded ?strategy ?threshold ?seed ?pool ~failed_devices ~failed_links ~masked_devices
      ~warm_assignment:prev.assignment ~cluster ~synthesis g
