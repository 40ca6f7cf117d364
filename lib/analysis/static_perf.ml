module Taskgraph = Tapa_cs_graph.Taskgraph
module Fifo = Tapa_cs_graph.Fifo
module Task = Tapa_cs_graph.Task
module Synthesis = Tapa_cs_hls.Synthesis
module Pipelining = Tapa_cs_pipeline.Pipelining
module Design_sim = Tapa_cs_sim.Design_sim
module Engine = Tapa_cs_sim.Engine

type bottleneck =
  | Task_compute of { task_id : int }
  | Task_memory of { task_id : int; port_index : int }
  | Link of { src_fpga : int; dst_fpga : int }

type t = {
  latency_lower_s : float;
  latency_upper_s : float;
  steady_ii_s : float;
  throughput_chunks_per_s : float;
  bottleneck : bottleneck option;
  min_depths : (int * int) list;
}

(* Relative margin absorbing float-summation order differences between
   this module and the simulator's event trajectory (~1e-11 worst case
   for realistic design sizes; two orders of magnitude of headroom). *)
let margin = 1e-9

let min_depth_floor = 2
let oversize_factor = 64

let compute ?(loss_rate = 0.0) ~depths (cfg : Design_sim.config) =
  let g = cfg.graph in
  let nchunks = Stdlib.max 1 cfg.chunks in
  let chunk_bytes (f : Fifo.t) =
    Float.max 1.0 (Fifo.traffic_bytes f /. float_of_int cfg.chunks)
  in
  let sim_volume f = float_of_int nchunks *. chunk_bytes f in
  let freq_hz fpga = cfg.freq_mhz.(fpga) *. 1e6 in
  let best_ii = ref 0.0 and best = ref None in
  let candidate ii who = if ii > !best_ii || !best = None then begin best_ii := ii; best := Some who end in
  (* Per-task wait sums: iterated exactly as the task fiber accumulates
     them, so [lower] needs no margin on this side. *)
  let task_lower = ref 0.0 and task_upper_sum = ref 0.0 in
  Array.iter
    (fun (t : Task.t) ->
      let f_hz = freq_hz cfg.assignment.(t.id) in
      let profile = Synthesis.profile_of cfg.synthesis t.id in
      let stage_latency =
        List.fold_left
          (fun acc (f : Fifo.t) -> Stdlib.max acc (cfg.extra_stage_cycles f.id))
          0 (Taskgraph.in_fifos g t.id)
      in
      let { Design_sim.compute_s; memory_s; mem_port } = Design_sim.chunk_split cfg t in
      let chunk_time = Float.max compute_s memory_s in
      let x = ref ((profile.Synthesis.startup_cycles +. float_of_int stage_latency) /. f_hz) in
      for _ = 1 to nchunks do
        x := !x +. chunk_time
      done;
      if !x > !task_lower then task_lower := !x;
      task_upper_sum := !task_upper_sum +. !x;
      if chunk_time > 0.0 then
        candidate chunk_time
          (if compute_s >= memory_s then Task_compute { task_id = t.id }
           else Task_memory { task_id = t.id; port_index = mem_port }))
    (Taskgraph.tasks g);
  (* Per-directed-link service: every cut FIFO contributes its mover's
     pieces.  Streams move [nchunks] pieces of [chunk_bytes] (plus at
     most one residual piece from float accumulation — charged to the
     upper bound only); Bulk moves one piece of [sim_volume]. *)
  let servers = Hashtbl.create 8 in
  Array.iter
    (fun (f : Fifo.t) ->
      let i = cfg.assignment.(f.src) and j = cfg.assignment.(f.dst) in
      if i <> j then begin
        let key = (i, j) in
        let lm, fifos =
          match Hashtbl.find_opt servers key with
          | Some (lm, fs) -> (lm, fs)
          | None -> (Design_sim.link_service cfg ~loss_rate i j, [])
        in
        Hashtbl.replace servers key (lm, f :: fifos)
      end)
    (Taskgraph.fifos g);
  let link_lower = ref 0.0 and link_upper_sum = ref 0.0 in
  Hashtbl.iter
    (fun (i, j) ((lm : Engine.Server.params), fifos) ->
      let sum = ref 0.0 and pieces = ref 0 and spare = ref 0.0 and per_chunk = ref 0.0 in
      List.iter
        (fun (f : Fifo.t) ->
          match f.Fifo.mode with
          | Fifo.Bulk ->
            let s = Engine.Server.service_time lm (sim_volume f) in
            sum := !sum +. s;
            incr pieces;
            per_chunk := !per_chunk +. (s /. float_of_int nchunks)
          | Fifo.Stream ->
            let s = Engine.Server.service_time lm (chunk_bytes f) in
            for _ = 1 to nchunks do
              sum := !sum +. s
            done;
            pieces := !pieces + nchunks;
            (* the possible residual mover piece (≤ one chunk) *)
            spare := !spare +. s +. lm.latency_s;
            per_chunk := !per_chunk +. s)
        fifos;
      let lower = (!sum +. lm.latency_s) *. (1.0 -. margin) in
      if lower > !link_lower then link_lower := lower;
      link_upper_sum :=
        !link_upper_sum +. !sum +. (float_of_int !pieces *. lm.latency_s) +. !spare;
      if !per_chunk > 0.0 then candidate !per_chunk (Link { src_fpga = i; dst_fpga = j }))
    servers;
  let latency_lower_s = Float.max !task_lower !link_lower in
  let latency_upper_s = (!task_upper_sum +. !link_upper_sum) *. (1.0 +. margin) in
  let steady_ii_s = !best_ii in
  let min_depths =
    if not depths then []
    else begin
      (* Bounded-channel analysis on reconvergent paths: treat every FIFO
         as a unit crossing and let the latency-balancing fixed point
         report, per edge, how far the longest parallel path runs ahead —
         the token imbalance the FIFO must buffer (TCS103's oracle),
         floored at 2 for double buffering. *)
      let crossings =
        Array.to_list (Taskgraph.fifos g) |> List.map (fun (f : Fifo.t) -> (f.Fifo.id, 1))
      in
      let bal = Pipelining.run ~graph:g ~crossings in
      let imbalance = Hashtbl.create 16 in
      List.iter
        (fun (ins : Pipelining.insertion) ->
          Hashtbl.replace imbalance ins.Pipelining.fifo_id ins.Pipelining.stages)
        bal.Pipelining.balancing;
      Array.to_list (Taskgraph.fifos g)
      |> List.map (fun (f : Fifo.t) ->
             let imb = Option.value (Hashtbl.find_opt imbalance f.Fifo.id) ~default:0 in
             (f.Fifo.id, Stdlib.max min_depth_floor imb))
    end
  in
  {
    latency_lower_s;
    latency_upper_s;
    steady_ii_s;
    throughput_chunks_per_s = (if steady_ii_s > 0.0 then 1.0 /. steady_ii_s else Float.infinity);
    bottleneck = !best;
    min_depths;
  }

let bounds ?loss_rate cfg = compute ?loss_rate ~depths:false cfg
let analyze ?loss_rate cfg = compute ?loss_rate ~depths:true cfg

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

let diag ?hint code loc message =
  let hint = match hint with Some _ -> hint | None -> Diagnostic.default_hint code in
  Diagnostic.make ?hint ~code ~severity:(Diagnostic.default_severity code) ~loc message

let fifo_loc g (f : Fifo.t) =
  Diagnostic.Fifo
    {
      id = f.Fifo.id;
      src = (Taskgraph.task g f.Fifo.src).Task.name;
      dst = (Taskgraph.task g f.Fifo.dst).Task.name;
    }

let depth_diagnostics ~graph t =
  List.filter_map
    (fun (fid, min_depth) ->
      let f = Taskgraph.fifo graph fid in
      if f.Fifo.depth < min_depth then
        Some
          (diag "TCS501" (fifo_loc graph f)
             (Printf.sprintf
                "declared depth %d is below the minimal deadlock-free depth %d for its \
                 reconvergent paths"
                f.Fifo.depth min_depth))
      else if f.Fifo.depth >= oversize_factor * min_depth && f.Fifo.depth > oversize_factor then
        Some
          (diag "TCS502" (fifo_loc graph f)
             (Printf.sprintf "declared depth %d is %dx the minimal deadlock-free depth %d"
                f.Fifo.depth (f.Fifo.depth / min_depth) min_depth))
      else None)
    t.min_depths

let interval_check t ~latency_s =
  if latency_s < t.latency_lower_s || latency_s > t.latency_upper_s then
    Some
      (diag "TCS503" Diagnostic.Design
         (Printf.sprintf
            "simulated latency %.9es falls outside the static interval [%.9es, %.9es]"
            latency_s t.latency_lower_s t.latency_upper_s))
  else None

let pp_bottleneck fmt = function
  | None -> Format.fprintf fmt "none (empty design)"
  | Some (Task_compute { task_id }) -> Format.fprintf fmt "task #%d compute" task_id
  | Some (Task_memory { task_id; port_index }) ->
    Format.fprintf fmt "task #%d memory port %d (HBM share)" task_id port_index
  | Some (Link { src_fpga; dst_fpga }) ->
    Format.fprintf fmt "link FPGA %d -> %d" src_fpga dst_fpga

let pp fmt t =
  Format.fprintf fmt "latency interval: [%.6f, %.6f] ms@."
    (t.latency_lower_s *. 1e3) (t.latency_upper_s *. 1e3);
  Format.fprintf fmt "steady-state II:  %.6f us/chunk (%.3f chunks/s)@."
    (t.steady_ii_s *. 1e6) t.throughput_chunks_per_s;
  Format.fprintf fmt "bottleneck:       %a@." pp_bottleneck t.bottleneck;
  if t.min_depths <> [] then begin
    let shallow = List.length (List.filter (fun (_, d) -> d > min_depth_floor) t.min_depths) in
    Format.fprintf fmt "min FIFO depths:  %d fifo(s), %d above the double-buffer floor@."
      (List.length t.min_depths) shallow
  end
