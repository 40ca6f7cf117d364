open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls
open Tapa_cs_sim

type kernel = {
  name : string;
  elems : float;
  ops_per_elem : float;
  bytes_per_elem : float;
  pe_resources : Resource.t;
  pe_lanes : int;
  exchange_bytes : float;
}

type bound = Compute | Memory | Network

type plan = {
  fpgas : int;
  pes_per_fpga : int;
  port_width_bits : int;
  predicted_bound : bound;
  predicted_latency_s : float;
  per_fpga_elem_rate : float;
  pe_cap_by_resources : int;
}

let bound_name = function Compute -> "compute" | Memory -> "memory" | Network -> "network"

(* Largest PE count whose aggregate resources stay within the thresholded
   budget for every resource type. *)
let resource_ceiling ~threshold (board : Board.t) pe =
  let cap = Resource.scale threshold board.Board.total in
  let per (used : int) (avail : int) = if used <= 0 then max_int else avail / used in
  List.fold_left min max_int
    [
      per pe.Resource.lut cap.Resource.lut;
      per pe.Resource.ff cap.Resource.ff;
      per pe.Resource.bram cap.Resource.bram;
      per pe.Resource.dsp cap.Resource.dsp;
      per pe.Resource.uram cap.Resource.uram;
    ]

let next_pow2_width bits =
  let rec go w = if w >= bits || w >= 512 then w else go (2 * w) in
  go 32

let plan ?(threshold = Constants.utilization_threshold) ~cluster kernel =
  let k = Cluster.size cluster in
  let board = Cluster.board cluster 0 in
  let freq_hz = board.Board.max_freq_mhz *. 1e6 in
  let pe_cap = resource_ceiling ~threshold board kernel.pe_resources in
  if pe_cap <= 0 then invalid_arg "Autoscale.plan: one PE exceeds the device budget";
  (* Memory wall: elements/second the HBM can feed. *)
  let mem_rate =
    if kernel.bytes_per_elem <= 0.0 then infinity
    else board.Board.hbm_bandwidth_gbps *. 1e9 /. kernel.bytes_per_elem
  in
  let pe_rate = float_of_int kernel.pe_lanes *. freq_hz in
  (* Replicate until memory-bound; more PEs would idle on starved ports (§3). *)
  let pes_for_memory =
    if mem_rate = infinity then pe_cap else int_of_float (ceil (mem_rate /. pe_rate))
  in
  let pes = max 1 (min pe_cap pes_for_memory) in
  let compute_rate = float_of_int pes *. pe_rate in
  let per_fpga_elem_rate = Float.min compute_rate mem_rate in
  (* Port width: narrowest power of two sustaining the per-PE byte rate. *)
  let bytes_per_cycle = kernel.bytes_per_elem *. float_of_int kernel.pe_lanes in
  let port_width_bits = next_pow2_width (int_of_float (ceil (bytes_per_cycle *. 8.0))) in
  (* Split the elements evenly; boundaries move [exchange_bytes] each. *)
  let elems_per_fpga = kernel.elems /. float_of_int k in
  let work_time = elems_per_fpga /. per_fpga_elem_rate in
  let net_time =
    if k <= 1 then 0.0
    else begin
      let bw = Cluster.link_bandwidth_gbytes cluster 0 1 *. 1e9 in
      kernel.exchange_bytes /. bw
    end
  in
  let predicted_bound =
    if net_time > work_time then Network
    else if mem_rate < compute_rate then Memory
    else Compute
  in
  {
    fpgas = k;
    pes_per_fpga = pes;
    port_width_bits;
    predicted_bound;
    predicted_latency_s = Float.max work_time net_time;
    per_fpga_elem_rate;
    pe_cap_by_resources = pe_cap;
  }

let sweep ?threshold ~cluster kernel =
  List.init (Cluster.size cluster) (fun i ->
      let k = i + 1 in
      let sub = Cluster.make ~topology:cluster.Cluster.topology ~board:(fun () -> Cluster.board cluster 0) k in
      (k, plan ?threshold ~cluster:sub kernel))

(* ------------------------------------------------------------------ *)
(* Measured scaling: lower the analytic plan into a PE-level task graph
   and run it through the event simulator, so the advisor's roofline
   prediction can be checked against the timed dataflow model (HBM port
   contention, link serialization, halo synchronization) instead of
   trusted blindly. *)

let to_graph ~cluster kernel (p : plan) =
  let k = p.fpgas in
  if k > Cluster.size cluster then invalid_arg "Autoscale.to_graph: plan larger than cluster";
  let b = Taskgraph.Builder.create () in
  let total_pes = float_of_int (k * p.pes_per_fpga) in
  let elems_per_pe = kernel.elems /. total_pes in
  let bytes_per_pe = kernel.bytes_per_elem *. elems_per_pe in
  let pe_ids =
    Array.init k (fun d ->
        Array.init p.pes_per_fpga (fun i ->
            let mem_ports =
              if bytes_per_pe <= 0.0 then []
              else
                [
                  Task.mem_port ~dir:Task.Read ~width_bits:p.port_width_bits ~bytes:bytes_per_pe ();
                ]
            in
            Taskgraph.Builder.add_task b
              ~name:(Printf.sprintf "%s.d%d.pe%d" kernel.name d i)
              ~kind:(kernel.name ^ ".pe")
              ~compute:
                (Task.make_compute ~ii:1.0 ~elems:elems_per_pe ~ops_per_elem:kernel.ops_per_elem
                   ~lanes:kernel.pe_lanes ())
              ~mem_ports
              ~resources:kernel.pe_resources ()))
  in
  (* One boundary-exchange FIFO pair between neighbouring devices: the
     halo traffic of a 1-D decomposition.  The pair forms a 2-cycle, so
     the simulator's SCC credit keeps it live. *)
  if k > 1 && kernel.exchange_bytes > 0.0 then begin
    let width = 512 in
    let elems = kernel.exchange_bytes /. float_of_int (width / 8) in
    for d = 0 to k - 2 do
      let l = pe_ids.(d).(0) and r = pe_ids.(d + 1).(0) in
      ignore (Taskgraph.Builder.add_fifo b ~src:l ~dst:r ~width_bits:width ~elems ());
      ignore (Taskgraph.Builder.add_fifo b ~src:r ~dst:l ~width_bits:width ~elems ())
    done
  end;
  let g = Taskgraph.Builder.build b in
  let assignment =
    Array.init (Taskgraph.num_tasks g) (fun tid -> tid / p.pes_per_fpga)
  in
  (g, assignment)

let sweep_jobs ?chunks ?threshold ~cluster kernel =
  let points = sweep ?threshold ~cluster kernel in
  let board () = Cluster.board cluster 0 in
  let sims =
    List.map
      (fun (k, p) ->
        let sub = Cluster.make ~topology:cluster.Cluster.topology ~board k in
        let g, assignment = to_graph ~cluster:sub kernel p in
        let synthesis = Synthesis.run ~board:(board ()) g in
        let freq_mhz = Array.make k (board ()).Board.max_freq_mhz in
        let cfg =
          Design_sim.make_config ?chunks ~graph:g ~assignment ~freq_mhz ~cluster:sub ~synthesis ()
        in
        Sim_sweep.job ~label:(Printf.sprintf "%s@%d" kernel.name k) cfg)
      points
  in
  (points, Array.of_list sims)

let measured_sweep ?jobs ?chunks ?threshold ~cluster kernel =
  let points, sims = sweep_jobs ?chunks ?threshold ~cluster kernel in
  let outcomes = Sim_sweep.run ?jobs sims in
  List.map2 (fun (k, p) (_, outcome) -> (k, p, outcome)) points (Array.to_list outcomes)

let measured_sweep_slo ?jobs ?chunks ?threshold ~slo_latency_s ~cluster kernel =
  let points, sims = sweep_jobs ?chunks ?threshold ~cluster kernel in
  let lower_bound_s (j : Sim_sweep.job) =
    (Tapa_cs_analysis.Static_perf.bounds j.Sim_sweep.config)
      .Tapa_cs_analysis.Static_perf.latency_lower_s
  in
  let rows = Sim_sweep.run_slo ?jobs ~slo_latency_s ~lower_bound_s sims in
  List.map2 (fun (k, p) (_, row) -> (k, p, row)) points (Array.to_list rows)

let pp_plan fmt p =
  Format.fprintf fmt
    "%d FPGA(s): %d PEs/device (ceiling %d), %d-bit ports, %s-bound, %.3f ms predicted" p.fpgas
    p.pes_per_fpga p.pe_cap_by_resources p.port_width_bits (bound_name p.predicted_bound)
    (1e3 *. p.predicted_latency_s)
