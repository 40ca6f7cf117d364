open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls

type t = {
  board : Board.t;
  slot_of : int option array;
  slot_usage : Resource.t array;
  slot_util : float array;
  crossings : (int * int) list;
  cost : float;
  levels : Partition.stats list;
}

type region = { slots : int list; row_lo : int; row_hi : int; col_lo : int; col_hi : int }

let region_of_slots board slots =
  let row s = s / board.Board.cols and col s = s mod board.Board.cols in
  let row_lo = List.fold_left (fun acc s -> min acc (row s)) max_int slots in
  let row_hi = List.fold_left (fun acc s -> max acc (row s)) min_int slots in
  let col_lo = List.fold_left (fun acc s -> min acc (col s)) max_int slots in
  let col_hi = List.fold_left (fun acc s -> max acc (col s)) min_int slots in
  { slots; row_lo; row_hi; col_lo; col_hi }

let centroid board r =
  let n = List.length r.slots in
  let sr = List.fold_left (fun acc s -> acc + (s / board.Board.cols)) 0 r.slots in
  let sc = List.fold_left (fun acc s -> acc + (s mod board.Board.cols)) 0 r.slots in
  (float_of_int sr /. float_of_int n, float_of_int sc /. float_of_int n)

let split board r =
  (* Cut the bounding box across its longer axis. *)
  let row s = s / board.Board.cols and col s = s mod board.Board.cols in
  let height = r.row_hi - r.row_lo + 1 and width = r.col_hi - r.col_lo + 1 in
  if height >= width then begin
    let mid = r.row_lo + (height / 2) in
    let lo, hi = List.partition (fun s -> row s < mid) r.slots in
    (region_of_slots board lo, region_of_slots board hi)
  end
  else begin
    let mid = r.col_lo + (width / 2) in
    let lo, hi = List.partition (fun s -> col s < mid) r.slots in
    (region_of_slots board lo, region_of_slots board hi)
  end

let manhattan_point (r1, c1) (r2, c2) = Float.abs (r1 -. r2) +. Float.abs (c1 -. c2)

let run ?(strategy = Partition.Auto) ?(threshold = Constants.utilization_threshold) ?(seed = 1)
    ~board ~synthesis ~graph ~tasks ?(io_pull = fun _ -> 0.0) () =
  let n = Taskgraph.num_tasks graph in
  let on_fpga = Array.make n false in
  List.iter (fun tid -> on_fpga.(tid) <- true) tasks;
  let slot_of = Array.make n None in
  let areas = Array.map (fun (p : Synthesis.profile) -> p.resources) synthesis.Synthesis.profiles in
  let levels = ref [] in
  let failure = ref None in
  let cols = board.Board.cols in
  let all_slots = List.init (Board.num_slots board) Fun.id in
  let hbm_slots = Board.hbm_slots board in
  let qsfp_slots = Board.qsfp_slots board in
  let slot_point s = (float_of_int (s / cols), float_of_int (s mod cols)) in
  let nearest_point targets (pt : float * float) =
    List.fold_left (fun acc s -> Float.min acc (manhattan_point pt (slot_point s))) infinity targets
  in
  (* Working map: region each task currently belongs to (centroid used for
     terminal propagation of not-yet-final placements). *)
  let region_of_task = Hashtbl.create 64 in
  let root = region_of_slots board all_slots in
  List.iter (fun tid -> Hashtbl.replace region_of_task tid root) tasks;
  let queue = Queue.create () in
  Queue.add (root, tasks) queue;
  while (not (Queue.is_empty queue)) && !failure = None do
    let region, members = Queue.pop queue in
    match region.slots with
    | [] -> if members <> [] then failure := Some "empty region with tasks"
    | [ s ] -> List.iter (fun tid -> slot_of.(tid) <- Some s) members
    | _ ->
      let ra, rb = split board region in
      let ca = centroid board ra and cb = centroid board rb in
      let member_arr = Array.of_list members in
      let index_of = Hashtbl.create 16 in
      Array.iteri (fun i tid -> Hashtbl.replace index_of tid i) member_arr;
      let local_areas = Array.map (fun tid -> areas.(tid)) member_arr in
      (* Internal edges between members; everything else becomes a pull. *)
      let edges = ref [] and pulls = ref [] in
      let add_pull i target_pt w =
        let da = manhattan_point ca target_pt and db = manhattan_point cb target_pt in
        if Float.abs (da -. db) > 1e-9 && w > 0.0 then begin
          let part = if da < db then 0 else 1 in
          pulls := (i, part, w *. Float.abs (da -. db)) :: !pulls
        end
      in
      Array.iteri
        (fun i tid ->
          let handle (f : Fifo.t) other =
            let w = float_of_int f.width_bits in
            match Hashtbl.find_opt index_of other with
            | Some j -> if i < j then edges := (i, j, w) :: !edges
            | None ->
              if on_fpga.(other) then begin
                match slot_of.(other) with
                | Some s -> add_pull i (slot_point s) w
                | None -> (
                  match Hashtbl.find_opt region_of_task other with
                  | Some r -> add_pull i (centroid board r) w
                  | None -> ())
              end
              (* Edges leaving the FPGA are handled by the QSFP pull below. *)
          in
          List.iter (fun f -> handle f f.Fifo.dst) (Taskgraph.out_fifos graph tid);
          List.iter (fun f -> handle f f.Fifo.src) (Taskgraph.in_fifos graph tid);
          (* HBM ports pull toward the memory row. *)
          let task = Taskgraph.task graph tid in
          let hbm_w =
            List.fold_left (fun acc (p : Task.mem_port) -> acc +. float_of_int p.width_bits) 0.0
              task.Task.mem_ports
          in
          if hbm_w > 0.0 && hbm_slots <> [] then begin
            let da = nearest_point hbm_slots ca and db = nearest_point hbm_slots cb in
            if Float.abs (da -. db) > 1e-9 then
              pulls := (i, (if da < db then 0 else 1), hbm_w *. Float.abs (da -. db)) :: !pulls
          end;
          (* Cut FIFOs pull toward the network ports. *)
          let io_w = io_pull tid in
          if io_w > 0.0 && qsfp_slots <> [] then begin
            let da = nearest_point qsfp_slots ca and db = nearest_point qsfp_slots cb in
            if Float.abs (da -. db) > 1e-9 then
              pulls := (i, (if da < db then 0 else 1), io_w *. Float.abs (da -. db)) :: !pulls
          end)
        member_arr;
      let problem_at threshold =
        let cap r =
          Resource.scale threshold
            (Resource.sum (List.map (fun s -> (board.Board.slots.(s)).Board.capacity) r.slots))
        in
        {
          Partition.areas = local_areas;
          edges = !edges;
          pulls = !pulls;
          k = 2;
          capacities = [| cap ra; cap rb |];
          dist = (fun a b -> abs (a - b));
          fixed = [];
        }
      in
      (* Retry ladder: if the requested threshold cannot host this region's
         tasks, relax toward physical capacity (the frequency model will
         charge the resulting congestion); only a > 100 % region is a hard
         routing failure. *)
      let solved =
        List.fold_left
          (fun acc th ->
            match acc with
            | Some _ -> acc
            | None -> (
              match Partition.solve ~strategy ~seed (problem_at th) with
              | Some r when r.Partition.feasible -> Some r
              | Some _ | None -> None))
          None
          [ threshold; Float.min 1.0 (threshold +. 0.15); 1.0 ]
      in
      (match solved with
      | None ->
        failure :=
          Some
            (Printf.sprintf
               "tasks exceed slot capacity in region rows %d-%d cols %d-%d (routing failure)"
               region.row_lo region.row_hi region.col_lo region.col_hi)
      | Some r when not r.feasible -> failure := Some "intra-FPGA partition over capacity"
      | Some r ->
        levels := r.stats :: !levels;
        let ma = ref [] and mb = ref [] in
        Array.iteri
          (fun i tid ->
            if r.assignment.(i) = 0 then ma := tid :: !ma else mb := tid :: !mb)
          member_arr;
        List.iter (fun tid -> Hashtbl.replace region_of_task tid ra) !ma;
        List.iter (fun tid -> Hashtbl.replace region_of_task tid rb) !mb;
        Queue.add (ra, List.rev !ma) queue;
        Queue.add (rb, List.rev !mb) queue)
  done;
  match !failure with
  | Some msg -> Error msg
  | None ->
    let nslots = Board.num_slots board in
    let slot_usage = Array.make nslots Resource.zero in
    Array.iteri
      (fun tid slot ->
        match slot with
        | Some s -> slot_usage.(s) <- Resource.add slot_usage.(s) areas.(tid)
        | None -> ())
      slot_of;
    let slot_util =
      Array.mapi
        (fun s u -> Resource.utilization u ~total:(board.Board.slots.(s)).Board.capacity)
        slot_usage
    in
    let crossings = ref [] and cost = ref 0.0 in
    Array.iter
      (fun (f : Fifo.t) ->
        match (slot_of.(f.src), slot_of.(f.dst)) with
        | Some a, Some b ->
          let d = Board.manhattan board a b in
          cost := !cost +. (float_of_int f.width_bits *. float_of_int d);
          if d > 0 then crossings := (f.id, d) :: !crossings
        | _ -> ())
      (Taskgraph.fifos graph);
    Ok
      {
        board;
        slot_of;
        slot_usage;
        slot_util;
        crossings = List.rev !crossings;
        cost = !cost;
        levels = List.rev !levels;
      }
