open Tapa_cs_device
open Tapa_cs_graph

type config = { cols : int; fpgas : int; batch : int }

let rows = 13

let make_config ?(batch = 64) ~cols ~fpgas () =
  if cols <= 0 || fpgas <= 0 || batch <= 0 then invalid_arg "Cnn.make_config";
  { cols; fpgas; batch }

let cols_tested = [ 4; 8; 12; 16; 20 ]
let macs_per_input = 54.5e6

let module_count c = (rows * c.cols) + rows + c.cols + c.cols + 1

(* Table 7: 2.14 MB at 13x4 growing linearly, i.e. 0.5355 MB per column. *)
let transfer_volume_bytes c =
  0.5355 *. 1024.0 *. 1024.0 *. float_of_int c.cols *. float_of_int c.batch

(* Table 8 calibration: utilization % = base + cols * slope for each
   resource (LUT 2.5 + 4.475c, FF 0.7 + 2.85c, BRAM 4.7 + 2.375c,
   DSP 0.7 + 6.125c, URAM 0), inverted into the per-module budgets below.

   Per-column cost on the U55C (Table 2 totals): LUT 51294, FF 65336,
   BRAM 42, DSP 513 — split across the 13 PEs, a weight feeder and a
   drainer of that column.  The base (13 activation feeders + collector)
   carries the remainder. *)
let pe_resources = Resource.make ~lut:3_200 ~ff:4_200 ~bram:2 ~dsp:36 ()
let b_feeder_resources = Resource.make ~lut:5_000 ~ff:6_000 ~bram:8 ~dsp:22 ()
let drainer_resources = Resource.make ~lut:4_694 ~ff:4_736 ~bram:8 ~dsp:23 ()
let a_feeder_resources = Resource.make ~lut:2_000 ~ff:1_100 ~bram:6 ~dsp:4 ()
let collector_resources = Resource.make ~lut:2_657 ~ff:1_747 ~bram:5 ~dsp:7 ()

let generate c =
  let b = Taskgraph.Builder.create () in
  let total_macs = macs_per_input *. float_of_int c.batch in
  let pe_elems = total_macs /. float_of_int (rows * c.cols) in
  (* Horizontal (activation) traffic per row link: a column cut crosses the
     13 row links, and their combined volume is Table 7's boundary figure
     (the activation stream is re-used across columns, so the volume is the
     same at every cut position). *)
  let h_bytes = transfer_volume_bytes c /. float_of_int rows in
  let h_elems = h_bytes /. 8.0 in
  let v_elems = h_elems /. float_of_int c.cols in
  let a_feeders =
    Array.init rows (fun r ->
        Taskgraph.Builder.add_task b
          ~name:(Printf.sprintf "a_feed_%02d" r)
          ~kind:"cnn_a_feeder"
          ~compute:(Task.make_compute ~elems:h_elems ~ii:1.0 ~elem_bits:64 ())
          ~mem_ports:[ Task.mem_port ~dir:Task.Read ~width_bits:256 ~bytes:h_bytes () ]
          ~resources:a_feeder_resources ())
  in
  let b_feeders =
    Array.init c.cols (fun col ->
        Taskgraph.Builder.add_task b
          ~name:(Printf.sprintf "b_feed_%02d" col)
          ~kind:"cnn_b_feeder"
          ~compute:(Task.make_compute ~elems:v_elems ~ii:1.0 ~elem_bits:64 ())
          ~mem_ports:[ Task.mem_port ~dir:Task.Read ~width_bits:256 ~bytes:(v_elems *. 8.0) () ]
          ~resources:b_feeder_resources ())
  in
  let pes =
    Array.init rows (fun r ->
        Array.init c.cols (fun col ->
            Taskgraph.Builder.add_task b
              ~name:(Printf.sprintf "pe_%02d_%02d" r col)
              ~kind:"cnn_pe"
              ~compute:
                (Task.make_compute ~elems:pe_elems ~ii:1.0 ~ops_per_elem:2.0 ~elem_bits:32
                   ~buffer_bytes:2048 ())
              ~resources:pe_resources ()))
  in
  let drainers =
    Array.init c.cols (fun col ->
        Taskgraph.Builder.add_task b
          ~name:(Printf.sprintf "drain_%02d" col)
          ~kind:"cnn_drainer"
          ~compute:(Task.make_compute ~elems:v_elems ~ii:1.0 ~elem_bits:64 ())
          ~resources:drainer_resources ())
  in
  let collector =
    Taskgraph.Builder.add_task b ~name:"collector" ~kind:"cnn_collector"
      ~compute:(Task.make_compute ~elems:(v_elems *. float_of_int c.cols) ~ii:1.0 ~elem_bits:64 ())
      ~mem_ports:
        [ Task.mem_port ~dir:Task.Write ~width_bits:256 ~bytes:(v_elems *. 8.0 *. float_of_int c.cols) () ]
      ~resources:collector_resources ()
  in
  let fifo ~src ~dst ~elems = ignore (Taskgraph.Builder.add_fifo b ~src ~dst ~width_bits:64 ~depth:8 ~elems ()) in
  for r = 0 to rows - 1 do
    fifo ~src:a_feeders.(r) ~dst:pes.(r).(0) ~elems:h_elems;
    for col = 0 to c.cols - 2 do
      fifo ~src:pes.(r).(col) ~dst:pes.(r).(col + 1) ~elems:h_elems
    done
  done;
  for col = 0 to c.cols - 1 do
    fifo ~src:b_feeders.(col) ~dst:pes.(0).(col) ~elems:v_elems;
    for r = 0 to rows - 2 do
      fifo ~src:pes.(r).(col) ~dst:pes.(r + 1).(col) ~elems:v_elems
    done;
    fifo ~src:pes.(rows - 1).(col) ~dst:drainers.(col) ~elems:v_elems;
    fifo ~src:drainers.(col) ~dst:collector ~elems:v_elems
  done;
  {
    App.name = "cnn";
    variant = Printf.sprintf "13x%d" c.cols;
    fpgas = c.fpgas;
    graph = Taskgraph.Builder.build b;
    description =
      Printf.sprintf "AutoSA systolic array for VGG conv3: 13x%d grid, %d modules, batch %d"
        c.cols (module_count c) c.batch;
  }
