open Tapa_cs_device
open Tapa_cs_graph

type assignment = {
  task_id : int;
  port_index : int;
  channel : int;
  bytes : float;
  distance : int;
}

type t = {
  assignments : assignment list;
  channel_load_bytes : float array;
  max_load_bytes : float;
  balance : float;
  wire_cost : float;
}

let channel_slot board =
  (* Map channel id -> slot index hosting it. *)
  let table = Hashtbl.create 32 in
  Array.iteri
    (fun idx (s : Board.slot) -> List.iter (fun ch -> Hashtbl.replace table ch idx) s.hbm_channels)
    board.Board.slots;
  table

let run ?(explore = true) ~board ~graph ~slot_of () =
  let nch = board.Board.num_hbm_channels in
  let ch_slot = channel_slot board in
  let load = Array.make (Stdlib.max nch 1) 0.0 in
  let ports = ref [] in
  Array.iteri
    (fun tid slot ->
      match slot with
      | None -> ()
      | Some s ->
        let task = Taskgraph.task graph tid in
        List.iteri (fun pi (p : Task.mem_port) -> ports := (tid, pi, p, s) :: !ports) task.Task.mem_ports)
    slot_of;
  let ports = List.rev !ports in
  (* Exploration sorts heavy ports first so they get the best channels;
     the naive flow binds in declaration order. *)
  let ports =
    if explore then
      List.stable_sort (fun (_, _, (a : Task.mem_port), _) (_, _, b, _) -> compare b.bytes a.bytes) ports
    else ports
  in
  let distance_to_channel slot ch =
    match Hashtbl.find_opt ch_slot ch with
    | Some cs -> Board.manhattan board slot cs
    | None -> 0
  in
  let assignments =
    List.map
      (fun (tid, pi, (p : Task.mem_port), slot) ->
        let channel =
          match p.channel with
          | Some ch -> ch (* user-specified binding is honored *)
          | None ->
            if nch = 0 then 0
            else if explore then begin
              (* Pick the channel minimizing load + wire-distance penalty. *)
              let best = ref 0 and best_key = ref infinity in
              for ch = 0 to nch - 1 do
                let d = float_of_int (distance_to_channel slot ch) in
                let key = load.(ch) +. (0.15 *. d *. Float.max 1.0 p.bytes) in
                if key < !best_key then begin
                  best_key := key;
                  best := ch
                end
              done;
              !best
            end
            else begin
              (* Naive: least-index channel with minimum count-based load. *)
              let best = ref 0 in
              for ch = nch - 1 downto 0 do
                if load.(ch) <= load.(!best) then best := ch
              done;
              !best
            end
        in
        if nch > 0 then load.(channel mod nch) <- load.(channel mod nch) +. p.bytes;
        {
          task_id = tid;
          port_index = pi;
          channel;
          bytes = p.bytes;
          distance = distance_to_channel slot channel;
        })
      ports
  in
  let max_load = Array.fold_left Float.max 0.0 load in
  let total = Array.fold_left ( +. ) 0.0 load in
  let nonzero = Array.fold_left (fun acc l -> if l > 0.0 then acc + 1 else acc) 0 load in
  let mean = if nonzero = 0 then 0.0 else total /. float_of_int (Stdlib.max nch 1) in
  let wire_cost =
    List.fold_left (fun acc a -> acc +. (a.bytes *. float_of_int a.distance)) 0.0 assignments
  in
  {
    assignments;
    channel_load_bytes = load;
    max_load_bytes = max_load;
    balance = (if mean > 0.0 then max_load /. mean else 1.0);
    wire_cost;
  }

let effective_port_bandwidth_gbps board t ~task_id ~port_index =
  match
    List.find_opt (fun a -> a.task_id = task_id && a.port_index = port_index) t.assignments
  with
  | None -> 0.0
  | Some a ->
    let per_channel =
      board.Board.hbm_bandwidth_gbps /. float_of_int (Stdlib.max 1 board.Board.num_hbm_channels)
    in
    (* Ports sharing a channel split its bandwidth in proportion to traffic. *)
    let share =
      if t.channel_load_bytes.(a.channel mod Stdlib.max 1 board.Board.num_hbm_channels) <= 0.0 then 1.0
      else a.bytes /. t.channel_load_bytes.(a.channel mod Stdlib.max 1 board.Board.num_hbm_channels)
    in
    per_channel *. share

let port_bandwidth_gbps board t ~graph ~freq_mhz ~task_id ~port_index =
  match List.nth_opt (Taskgraph.task graph task_id).Task.mem_ports port_index with
  | None -> 0.0
  | Some p ->
    let wire = float_of_int p.Task.width_bits /. 8.0 *. freq_mhz *. 1e6 /. 1e9 in
    Float.min (effective_port_bandwidth_gbps board t ~task_id ~port_index) wire
