open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls
open Tapa_cs_floorplan
open Tapa_cs_freq
open Tapa_cs_sim

type design = {
  label : string;
  graph : Taskgraph.t;
  cluster : Cluster.t;
  synthesis : Synthesis.report;
  assignment : int array;
  freq_mhz : float;
  port_bandwidth_gbps : int -> int -> float;
  extra_stage_cycles : int -> int;
  max_slot_util : float;
  compiled : Compiler.t option;
}

let vitis ?(board = Board.u55c) graph =
  let board = board () in
  let cluster = Cluster.make ~board:(fun () -> board) 1 in
  let synthesis = Synthesis.run ~board graph in
  let slot_of = Freq_model.naive_placement ~board ~synthesis graph in
  let est = Freq_model.of_placement ~board ~synthesis ~graph ~slot_of ~pipelined:false () in
  if not est.Freq_model.routed then
    Error "Vitis flow: placement over physical capacity (routing failure)"
  else begin
    let binding = Hbm_binding.run ~explore:false ~board ~graph ~slot_of () in
    Ok
      {
        label = "F1-V";
        graph;
        cluster;
        synthesis;
        assignment = Array.make (Taskgraph.num_tasks graph) 0;
        freq_mhz = est.Freq_model.freq_mhz;
        port_bandwidth_gbps =
          (fun task_id port_index ->
            Hbm_binding.port_bandwidth_gbps board binding ~graph ~freq_mhz:est.Freq_model.freq_mhz
              ~task_id ~port_index);
        extra_stage_cycles = (fun _ -> 0);
        max_slot_util = est.Freq_model.max_slot_util;
        compiled = None;
      }
  end

let tapa ?(board = Board.u55c) ?(options = Compiler.default_options) ?pool graph =
  let board = board () in
  let cluster = Cluster.make ~board:(fun () -> board) 1 in
  match Compiler.compile ~options ?pool ~cluster graph with
  | Error e -> Error ("TAPA flow: " ^ e)
  | Ok c ->
    Ok
      {
        label = "F1-T";
        graph;
        cluster;
        synthesis = c.Compiler.synthesis;
        assignment = Array.make (Taskgraph.num_tasks graph) 0;
        freq_mhz = c.Compiler.freq_mhz;
        port_bandwidth_gbps = Compiler.port_bandwidth_gbps c;
        extra_stage_cycles = Compiler.extra_stage_cycles c;
        max_slot_util =
          Array.fold_left
            (fun acc (e : Freq_model.estimate) -> Float.max acc e.max_slot_util)
            0.0 c.Compiler.freq;
        compiled = Some c;
      }

let tapa_cs ?(options = Compiler.default_options) ?pool ~cluster graph =
  match Compiler.compile ~options ?pool ~cluster graph with
  | Error e -> Error ("TAPA-CS flow: " ^ e)
  | Ok c ->
    Ok
      {
        label = Printf.sprintf "F%d" (Cluster.size cluster);
        graph;
        cluster;
        synthesis = c.Compiler.synthesis;
        assignment = c.Compiler.inter.Inter_fpga.assignment;
        freq_mhz = c.Compiler.freq_mhz;
        port_bandwidth_gbps = Compiler.port_bandwidth_gbps c;
        extra_stage_cycles = Compiler.extra_stage_cycles c;
        max_slot_util =
          Array.fold_left
            (fun acc (e : Freq_model.estimate) -> Float.max acc e.max_slot_util)
            0.0 c.Compiler.freq;
        compiled = Some c;
      }

let sim_config ?chunks d =
  let k = Cluster.size d.cluster in
  let config =
    Design_sim.make_config ?chunks ~graph:d.graph ~assignment:d.assignment
      ~freq_mhz:(Array.make k d.freq_mhz) ~cluster:d.cluster ~synthesis:d.synthesis ()
  in
  {
    config with
    Design_sim.port_bandwidth_gbps = d.port_bandwidth_gbps;
    extra_stage_cycles = d.extra_stage_cycles;
  }

let simulate ?chunks d = Design_sim.run (sim_config ?chunks d)

let static_bounds ?chunks ?(loss_rate = 0.0) d =
  Tapa_cs_analysis.Static_perf.analyze ~loss_rate (sim_config ?chunks d)

let simulate_outcome ?chunks ?faults d = Design_sim.run_outcome ?faults (sim_config ?chunks d)

let latency_s ?chunks d = (simulate ?chunks d).Design_sim.latency_s

(* The pruning callback: sound only while the static model covers the
   job's faults — loss is derated closed-form, but halts and stalls can
   cut a run short of its clean lower bound, so those jobs always
   simulate. *)
let job_lower_bound_s (j : Sim_sweep.job) =
  let f = j.Sim_sweep.faults in
  if f.Tapa_cs_network.Fault.device_halts <> [] || f.Tapa_cs_network.Fault.fifo_stalls <> []
  then neg_infinity
  else
    (Tapa_cs_analysis.Static_perf.bounds ~loss_rate:f.Tapa_cs_network.Fault.loss_rate
       j.Sim_sweep.config)
      .Tapa_cs_analysis.Static_perf.latency_lower_s

let simulate_many ?jobs ?chunks ?(faults = fun (_ : design) -> Tapa_cs_network.Fault.no_faults)
    ?slo_latency_s (designs : design list) =
  let jobs_arr =
    Array.of_list
      (List.map (fun d -> Sim_sweep.job ~faults:(faults d) ~label:d.label (sim_config ?chunks d)) designs)
  in
  match slo_latency_s with
  | None -> Array.to_list (Sim_sweep.run ?jobs jobs_arr)
  | Some slo ->
    Sim_sweep.run_slo ?jobs ~slo_latency_s:slo ~lower_bound_s:job_lower_bound_s jobs_arr
    |> Array.to_list
    |> List.filter_map (fun (label, row) ->
           match row with
           | Sim_sweep.Simulated o -> Some (label, o)
           | Sim_sweep.Pruned _ -> None)
