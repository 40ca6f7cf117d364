open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_floorplan

let slot_name (board : Board.t) s =
  let row = s / board.Board.cols and col = s mod board.Board.cols in
  Printf.sprintf "SLR%d_X%d" row col

let floorplan_tcl (c : Compiler.t) ~fpga =
  let board = Cluster.board c.Compiler.cluster fpga in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "# TAPA-CS floorplan constraints for FPGA %d (%s)\n" fpga board.Board.name);
  Buffer.add_string buf
    (Printf.sprintf "# design clock: %.0f MHz\n\n" c.Compiler.freq_mhz);
  let placement = c.Compiler.intra.(fpga) in
  let by_slot = Hashtbl.create 8 in
  Array.iteri
    (fun tid slot ->
      match slot with
      | Some s when Compiler.fpga_of c tid = fpga ->
        let cur = Option.value (Hashtbl.find_opt by_slot s) ~default:[] in
        Hashtbl.replace by_slot s ((Taskgraph.task c.Compiler.graph tid).Task.name :: cur)
      | _ -> ())
    placement.Intra_fpga.slot_of;
  let slots = List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) by_slot []) in
  List.iter
    (fun s ->
      let name = slot_name board s in
      Buffer.add_string buf (Printf.sprintf "create_pblock pblock_%s\n" name);
      Buffer.add_string buf
        (Printf.sprintf "resize_pblock pblock_%s -add CLOCKREGION_X%dY%d:CLOCKREGION_X%dY%d\n"
           name
           (2 * (s mod board.Board.cols))
           (4 * (s / board.Board.cols))
           ((2 * (s mod board.Board.cols)) + 1)
           ((4 * (s / board.Board.cols)) + 3));
      let tasks = List.rev (Hashtbl.find by_slot s) in
      List.iter
        (fun t ->
          Buffer.add_string buf
            (Printf.sprintf "add_cells_to_pblock pblock_%s [get_cells -hier %s]\n" name t))
        tasks;
      let slot = board.Board.slots.(s) in
      if slot.Board.hbm_channels <> [] then
        Buffer.add_string buf
          (Printf.sprintf "# pblock_%s abuts HBM channels %s\n" name
             (String.concat "," (List.map string_of_int slot.Board.hbm_channels)));
      if slot.Board.qsfp_ports <> [] then
        Buffer.add_string buf (Printf.sprintf "# pblock_%s hosts the QSFP28/CMAC region\n" name);
      Buffer.add_char buf '\n')
    slots;
  (* Pipeline register hints at the slot crossings. *)
  let pipe = c.Compiler.pipeline.(fpga) in
  List.iter
    (fun (ins : Tapa_cs_pipeline.Pipelining.insertion) ->
      let f = Taskgraph.fifo c.Compiler.graph ins.fifo_id in
      Buffer.add_string buf
        (Printf.sprintf "# fifo %s->%s: %d pipeline stage(s) inserted at slot crossings\n"
           (Taskgraph.task c.Compiler.graph f.Fifo.src).Task.name
           (Taskgraph.task c.Compiler.graph f.Fifo.dst).Task.name
           ins.stages))
    pipe.Tapa_cs_pipeline.Pipelining.insertions;
  Buffer.contents buf

let connectivity_cfg (c : Compiler.t) ~fpga =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# v++ linker config for FPGA %d\n[connectivity]\n" fpga);
  List.iter
    (fun (a : Hbm_binding.assignment) ->
      if Compiler.fpga_of c a.task_id = fpga then
        Buffer.add_string buf
          (Printf.sprintf "sp=%s.m_axi_%d:HBM[%d]\n"
             (Taskgraph.task c.Compiler.graph a.task_id).Task.name a.port_index a.channel))
    c.Compiler.hbm.(fpga).Hbm_binding.assignments;
  (* AlveoLink streams for the FIFOs cut away from this device. *)
  List.iter
    (fun (f : Fifo.t) ->
      let sf = Compiler.fpga_of c f.Fifo.src and df = Compiler.fpga_of c f.Fifo.dst in
      if sf = fpga then
        Buffer.add_string buf
          (Printf.sprintf "stream_connect=%s.out:hivenet_tx.in   # to FPGA %d\n"
             (Taskgraph.task c.Compiler.graph f.Fifo.src).Task.name df)
      else if df = fpga then
        Buffer.add_string buf
          (Printf.sprintf "stream_connect=hivenet_rx.out:%s.in   # from FPGA %d\n"
             (Taskgraph.task c.Compiler.graph f.Fifo.dst).Task.name sf))
    c.Compiler.inter.Inter_fpga.cut_fifos;
  Buffer.contents buf

(* A pretty-printed layout of its own (pinned by the golden files); only
   its string literals go through the shared JSON escaper. *)
let design_report_json (c : Compiler.t) =
  let buf = Buffer.create 4096 in
  let k = Cluster.size c.Compiler.cluster in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"fpgas\": %d,\n" k);
  Buffer.add_string buf (Printf.sprintf "  \"clock_mhz\": %.1f,\n" c.Compiler.freq_mhz);
  Buffer.add_string buf
    (Printf.sprintf "  \"l1_floorplan_seconds\": %.3f,\n" c.Compiler.l1_runtime_s);
  Buffer.add_string buf
    (Printf.sprintf "  \"l2_floorplan_seconds\": %.3f,\n" c.Compiler.l2_runtime_s);
  Buffer.add_string buf
    (Printf.sprintf "  \"inter_fpga_traffic_bytes\": %.0f,\n"
       c.Compiler.inter.Inter_fpga.traffic_bytes);
  Buffer.add_string buf "  \"cut_fifos\": [";
  Buffer.add_string buf
    (String.concat ", "
       (List.map (fun (f : Fifo.t) -> string_of_int f.Fifo.id) c.Compiler.inter.Inter_fpga.cut_fifos));
  Buffer.add_string buf "],\n";
  Buffer.add_string buf "  \"devices\": [\n";
  for fpga = 0 to k - 1 do
    let est = c.Compiler.freq.(fpga) in
    let u = c.Compiler.inter.Inter_fpga.per_fpga_util.(fpga) in
    Buffer.add_string buf "    {\n";
    Buffer.add_string buf (Printf.sprintf "      \"index\": %d,\n" fpga);
    Buffer.add_string buf (Printf.sprintf "      \"clock_mhz\": %.1f,\n" est.Tapa_cs_freq.Freq_model.freq_mhz);
    Buffer.add_string buf (Printf.sprintf "      \"utilization\": %.4f,\n" u);
    Buffer.add_string buf
      (Printf.sprintf "      \"binding_resource\": %s,\n"
         (Tapa_cs_util.Json.quote est.Tapa_cs_freq.Freq_model.binding_resource));
    Buffer.add_string buf "      \"tasks\": [";
    let names = ref [] in
    Array.iteri
      (fun tid f ->
        if f = fpga then
          names := Tapa_cs_util.Json.quote (Taskgraph.task c.Compiler.graph tid).Task.name :: !names)
      c.Compiler.inter.Inter_fpga.assignment;
    Buffer.add_string buf (String.concat ", " (List.rev !names));
    Buffer.add_string buf "]\n";
    Buffer.add_string buf (if fpga = k - 1 then "    }\n" else "    },\n")
  done;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Round-trip verification (TCS6xx)                                    *)
(* ------------------------------------------------------------------ *)

module Artifact_check = Tapa_cs_analysis.Artifact_check
module Diagnostic = Tapa_cs_analysis.Diagnostic

let verify_artifacts (c : Compiler.t) ~tcl_of ~cfg_of ~report =
  let g = c.Compiler.graph in
  let name tid = (Taskgraph.task g tid).Task.name in
  let k = Cluster.size c.Compiler.cluster in
  let ds = ref [] in
  for fpga = 0 to k - 1 do
    let board = Cluster.board c.Compiler.cluster fpga in
    let fp = Artifact_check.parse_floorplan_tcl (tcl_of fpga) in
    let expected_slots =
      List.filter_map
        (fun tid ->
          if Compiler.fpga_of c tid <> fpga then None
          else
            match Compiler.slot_of c tid with
            | Some s -> Some (name tid, slot_name board s)
            | None -> None)
        (List.init (Taskgraph.num_tasks g) Fun.id)
    in
    ds := !ds @ Artifact_check.check_floorplan ~fpga ~expected_slots fp;
    let pipe = c.Compiler.pipeline.(fpga) in
    let expected_insertions =
      List.map
        (fun (ins : Tapa_cs_pipeline.Pipelining.insertion) ->
          (ins.Tapa_cs_pipeline.Pipelining.fifo_id, ins.Tapa_cs_pipeline.Pipelining.stages))
        pipe.Tapa_cs_pipeline.Pipelining.insertions
    in
    ds :=
      !ds
      @ Artifact_check.check_stage_balance ~graph:g ~fpga ~expected_insertions
          ~expected_total:(Tapa_cs_pipeline.Pipelining.stages_of pipe)
          fp;
    let conn = Artifact_check.parse_connectivity_cfg (cfg_of fpga) in
    let expected_bindings =
      List.filter_map
        (fun (a : Hbm_binding.assignment) ->
          if Compiler.fpga_of c a.task_id <> fpga then None
          else
            Some
              {
                Artifact_check.task = name a.task_id;
                port_index = a.port_index;
                channel = a.channel;
              })
        c.Compiler.hbm.(fpga).Hbm_binding.assignments
    in
    let expected_streams =
      List.filter_map
        (fun (f : Fifo.t) ->
          let sf = Compiler.fpga_of c f.Fifo.src and df = Compiler.fpga_of c f.Fifo.dst in
          if sf = fpga then
            Some { Artifact_check.task = name f.Fifo.src; dir = `Tx; peer_fpga = df }
          else if df = fpga then
            Some { Artifact_check.task = name f.Fifo.dst; dir = `Rx; peer_fpga = sf }
          else None)
        c.Compiler.inter.Inter_fpga.cut_fifos
    in
    ds := !ds @ Artifact_check.check_connectivity ~fpga ~expected_bindings ~expected_streams conn
  done;
  (match Artifact_check.parse_design_report report with
  | Error m ->
    ds :=
      !ds
      @ [
          Diagnostic.make ~code:"TCS603" ~severity:Diagnostic.Error
            ~loc:(Diagnostic.Constraint { name = "design_report.json" })
            (Printf.sprintf "design report is unparseable: %s" m);
        ]
  | Ok got ->
    let expected =
      {
        Artifact_check.fpgas = k;
        clock_mhz = c.Compiler.freq_mhz;
        cut_fifo_ids =
          List.map (fun (f : Fifo.t) -> f.Fifo.id) c.Compiler.inter.Inter_fpga.cut_fifos;
        device_clock_mhz =
          List.init k (fun i -> (i, c.Compiler.freq.(i).Tapa_cs_freq.Freq_model.freq_mhz));
        device_tasks =
          List.init k (fun i ->
              ( i,
                List.filter_map
                  (fun tid -> if Compiler.fpga_of c tid = i then Some (name tid) else None)
                  (List.init (Taskgraph.num_tasks g) Fun.id) ));
      }
    in
    ds := !ds @ Artifact_check.check_report ~expected got);
  !ds

let verify_roundtrip (c : Compiler.t) =
  verify_artifacts c
    ~tcl_of:(fun fpga -> floorplan_tcl c ~fpga)
    ~cfg_of:(fun fpga -> connectivity_cfg c ~fpga)
    ~report:(design_report_json c)

let write_all (c : Compiler.t) ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let k = Cluster.size c.Compiler.cluster in
  let write path contents =
    let oc = open_out (Filename.concat dir path) in
    output_string oc contents;
    close_out oc
  in
  for fpga = 0 to k - 1 do
    write (Printf.sprintf "floorplan_f%d.tcl" fpga) (floorplan_tcl c ~fpga);
    write (Printf.sprintf "connectivity_f%d.cfg" fpga) (connectivity_cfg c ~fpga)
  done;
  write "design_report.json" (design_report_json c)
