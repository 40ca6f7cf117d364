(* Tests for the discrete-event engine and the design simulator:
   channel semantics, determinism, deadlock detection, server contention,
   and dataflow conservation laws. *)

open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls
open Tapa_cs_sim

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let fl = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_wait_orders_events () =
  let e = Engine.create () in
  let order = ref [] in
  Engine.spawn e ~name:"a" (fun () ->
      Engine.wait 2.0;
      order := "a" :: !order);
  Engine.spawn e ~name:"b" (fun () ->
      Engine.wait 1.0;
      order := "b" :: !order);
  let r = Engine.run e in
  check (Alcotest.list Alcotest.string) "order by time" [ "b"; "a" ] (List.rev !order);
  check fl "end time" 2.0 r.end_time;
  check bool "no deadlock" true (r.deadlocked = [])

let test_same_time_fifo_order () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.spawn e ~name:(string_of_int i) (fun () -> order := i :: !order)
  done;
  ignore (Engine.run e);
  check (Alcotest.list int) "spawn order preserved at equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_negative_wait_rejected () =
  let e = Engine.create () in
  let raised = ref false in
  Engine.spawn e (fun () -> try Engine.wait (-1.0) with Invalid_argument _ -> raised := true);
  ignore (Engine.run e);
  check bool "negative wait rejected" true !raised

let test_channel_backpressure () =
  let e = Engine.create () in
  let ch = Engine.Channel.create ~capacity:10.0 in
  let produced_at = ref [] in
  Engine.spawn e ~name:"producer" (fun () ->
      for _ = 1 to 3 do
        Engine.Channel.push ch 10.0;
        produced_at := Engine.time () :: !produced_at
      done);
  Engine.spawn e ~name:"consumer" (fun () ->
      for _ = 1 to 3 do
        Engine.wait 5.0;
        Engine.Channel.pull ch 10.0
      done);
  let r = Engine.run e in
  check bool "no deadlock" true (r.deadlocked = []);
  (* First push is immediate; the rest wait for pulls at t=5,10. *)
  check (Alcotest.list fl) "pushes gated by pulls" [ 0.0; 5.0; 10.0 ] (List.rev !produced_at);
  check fl "conservation" (Engine.Channel.total_pushed ch) (Engine.Channel.total_pulled ch +. Engine.Channel.level ch)

let test_channel_oversized_message_streams () =
  let e = Engine.create () in
  let ch = Engine.Channel.create ~capacity:4.0 in
  Engine.spawn e ~name:"p" (fun () -> Engine.Channel.push ch 20.0);
  Engine.spawn e ~name:"c" (fun () -> Engine.Channel.pull ch 20.0);
  let r = Engine.run e in
  check bool "oversized transfer completes" true (r.deadlocked = []);
  check fl "all bytes moved" 20.0 (Engine.Channel.total_pulled ch)

let test_channel_no_float_wedge () =
  (* Regression: repeated large chunk cycles must not wedge on rounding. *)
  let e = Engine.create () in
  let chunk = 18.03e6 +. 0.125 in
  let ch = Engine.Channel.create ~capacity:chunk in
  Engine.spawn e ~name:"p" (fun () ->
      for _ = 1 to 64 do
        Engine.Channel.push ch chunk
      done);
  Engine.spawn e ~name:"q" (fun () ->
      for _ = 1 to 64 do
        Engine.Channel.pull ch chunk
      done);
  let r = Engine.run e in
  check bool "no rounding deadlock" true (r.deadlocked = [])

let test_deadlock_detection () =
  let e = Engine.create () in
  let a = Engine.Channel.create ~capacity:1.0 in
  let b = Engine.Channel.create ~capacity:1.0 in
  Engine.spawn e ~name:"p1" (fun () ->
      Engine.Channel.pull a 1.0;
      Engine.Channel.push b 1.0);
  Engine.spawn e ~name:"p2" (fun () ->
      Engine.Channel.pull b 1.0;
      Engine.Channel.push a 1.0);
  let r = Engine.run e in
  check int "both reported" 2 (List.length r.deadlocked)

let test_server_serializes () =
  let e = Engine.create () in
  let srv =
    Engine.Server.create e
      { rate_bytes_per_s = 100.0; latency_s = 0.25; per_packet_s = 0.0; packet_bytes = 4096.0 }
  in
  let ends = ref [] in
  for i = 1 to 3 do
    Engine.spawn e ~name:(string_of_int i) (fun () ->
        Engine.Server.transfer srv 100.0;
        ends := Engine.time () :: !ends)
  done;
  ignore (Engine.run e);
  check (Alcotest.list fl) "queueing + latency" [ 1.25; 2.25; 3.25 ] (List.sort compare !ends);
  check fl "busy time" 3.0 (Engine.Server.busy_time srv);
  check fl "bytes" 300.0 (Engine.Server.bytes_moved srv)

let test_server_per_packet_overhead () =
  let e = Engine.create () in
  let srv =
    Engine.Server.create e
      { rate_bytes_per_s = 1000.0; latency_s = 0.0; per_packet_s = 0.1; packet_bytes = 10.0 }
  in
  Engine.spawn e (fun () -> Engine.Server.transfer srv 30.0);
  let r = Engine.run e in
  (* 3 packets x 0.1 + 30/1000 *)
  check fl "packetized time" 0.33 r.end_time

let test_determinism () =
  let run () =
    let e = Engine.create () in
    let ch = Engine.Channel.create ~capacity:7.0 in
    let trace = ref [] in
    for i = 0 to 4 do
      Engine.spawn e ~name:(Printf.sprintf "p%d" i) (fun () ->
          Engine.wait (0.1 *. float_of_int i);
          Engine.Channel.push ch 3.0;
          trace := (i, Engine.time ()) :: !trace)
    done;
    Engine.spawn e ~name:"drain" (fun () ->
        for _ = 1 to 5 do
          Engine.Channel.pull ch 3.0;
          Engine.wait 0.05
        done);
    ignore (Engine.run e);
    !trace
  in
  check bool "identical traces" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Design simulator                                                    *)
(* ------------------------------------------------------------------ *)

let simple_design ?(cross = false) () =
  (* producer -> consumer, optionally split across 2 FPGAs. *)
  let b = Taskgraph.Builder.create () in
  let p =
    Taskgraph.Builder.add_task b ~name:"producer"
      ~compute:(Task.make_compute ~elems:1e6 ~ii:1.0 ())
      ()
  in
  let c =
    Taskgraph.Builder.add_task b ~name:"consumer"
      ~compute:(Task.make_compute ~elems:1e6 ~ii:1.0 ())
      ()
  in
  ignore (Taskgraph.Builder.add_fifo b ~src:p ~dst:c ~width_bits:32 ~elems:1e6 ());
  let g = Taskgraph.Builder.build b in
  let board = Board.u55c () in
  let cluster = Cluster.make ~board:(fun () -> board) (if cross then 2 else 1) in
  let synthesis = Synthesis.run ~board g in
  let assignment = if cross then [| 0; 1 |] else [| 0; 0 |] in
  Design_sim.make_config ~graph:g ~assignment
    ~freq_mhz:(Array.make (Cluster.size cluster) 300.0)
    ~cluster ~synthesis ()

let rate_mismatch_config () =
  (* 4x slower consumer across the link: data piles up upstream of the
     mover. *)
  let b = Taskgraph.Builder.create () in
  let p = Taskgraph.Builder.add_task b ~name:"p" ~compute:(Task.make_compute ~elems:2e5 ~ii:1.0 ()) () in
  let c = Taskgraph.Builder.add_task b ~name:"c" ~compute:(Task.make_compute ~elems:2e5 ~ii:4.0 ()) () in
  ignore (Taskgraph.Builder.add_fifo b ~src:p ~dst:c ~width_bits:32 ~elems:2e5 ());
  let g = Taskgraph.Builder.build b in
  let board = Board.u55c () in
  let cluster = Cluster.make ~board:(fun () -> board) 2 in
  let synthesis = Synthesis.run ~board g in
  Design_sim.make_config ~graph:g ~assignment:[| 0; 1 |] ~freq_mhz:[| 300.0; 300.0 |] ~cluster
    ~synthesis ()

let fan_in_config () =
  (* Two producers at different rates on different FPGAs feeding one
     consumer: one cross FIFO, one local. *)
  let b = Taskgraph.Builder.create () in
  let p0 = Taskgraph.Builder.add_task b ~name:"p0" ~compute:(Task.make_compute ~elems:1e5 ~ii:1.0 ()) () in
  let p1 = Taskgraph.Builder.add_task b ~name:"p1" ~compute:(Task.make_compute ~elems:1e5 ~ii:2.0 ()) () in
  let c = Taskgraph.Builder.add_task b ~name:"c" ~compute:(Task.make_compute ~elems:2e5 ~ii:1.0 ()) () in
  ignore (Taskgraph.Builder.add_fifo b ~src:p0 ~dst:c ~width_bits:32 ~elems:1e5 ());
  ignore (Taskgraph.Builder.add_fifo b ~src:p1 ~dst:c ~width_bits:32 ~elems:1e5 ());
  let g = Taskgraph.Builder.build b in
  let board = Board.u55c () in
  let cluster = Cluster.make ~board:(fun () -> board) 2 in
  let synthesis = Synthesis.run ~board g in
  Design_sim.make_config ~graph:g ~assignment:[| 0; 1; 0 |] ~freq_mhz:[| 300.0; 300.0 |] ~cluster
    ~synthesis ()

let test_design_sim_local () =
  let r = Design_sim.run (simple_design ()) in
  check bool "completes" true (r.deadlocked = []);
  (* 1e6 elems at 1 elem/cycle at 300 MHz ~ 3.33 ms, pipelined overlap. *)
  check bool "latency near compute bound" true (r.latency_s > 0.003 && r.latency_s < 0.005);
  check bool "no links used" true (r.links = [])

let test_design_sim_cross_fpga () =
  let local = Design_sim.run (simple_design ()) in
  let crossed = Design_sim.run (simple_design ~cross:true ()) in
  check bool "crossing is never faster" true (crossed.latency_s >= local.latency_s -. 1e-6);
  (* The mover delivers every byte of the cut FIFO over its one link,
     whatever the rates on either side of it. *)
  List.iter
    (fun (name, (cfg : Design_sim.config)) ->
      let r = Design_sim.run ~cache:false cfg in
      check bool (name ^ ": completes") true (r.deadlocked = []);
      let cut =
        Array.to_list (Taskgraph.fifos cfg.graph)
        |> List.filter (fun (f : Fifo.t) -> cfg.assignment.(f.src) <> cfg.assignment.(f.dst))
        |> List.fold_left (fun acc f -> acc +. Fifo.traffic_bytes f) 0.0
      in
      match r.links with
      | [ link ] -> check fl (name ^ ": link carried the cut FIFO") cut link.Design_sim.bytes
      | _ -> Alcotest.fail (name ^ ": one link expected"))
    [
      ("cross", simple_design ~cross:true ());
      ("rate mismatch", rate_mismatch_config ());
      ("fan-in", fan_in_config ());
    ]

let test_design_sim_bulk_serializes () =
  let make mode =
    let b = Taskgraph.Builder.create () in
    let p = Taskgraph.Builder.add_task b ~name:"p" ~compute:(Task.make_compute ~elems:1e6 ~ii:1.0 ()) () in
    let c = Taskgraph.Builder.add_task b ~name:"c" ~compute:(Task.make_compute ~elems:1e6 ~ii:1.0 ()) () in
    ignore (Taskgraph.Builder.add_fifo b ~src:p ~dst:c ~width_bits:32 ~elems:1e6 ~mode ());
    let g = Taskgraph.Builder.build b in
    let board = Board.u55c () in
    let cluster = Cluster.make ~board:(fun () -> board) 2 in
    let synthesis = Synthesis.run ~board g in
    Design_sim.run
      (Design_sim.make_config ~graph:g ~assignment:[| 0; 1 |] ~freq_mhz:[| 300.0; 300.0 |]
         ~cluster ~synthesis ())
  in
  let stream = make Fifo.Stream and bulk = make Fifo.Bulk in
  check bool "bulk strictly slower than stream (no overlap)" true
    (bulk.latency_s > stream.latency_s *. 1.5)

let test_design_sim_cycle_credits () =
  (* a <-> b feedback loop must not deadlock. *)
  let b = Taskgraph.Builder.create () in
  let x = Taskgraph.Builder.add_task b ~name:"x" ~compute:(Task.make_compute ~elems:1000.0 ~ii:1.0 ()) () in
  let y = Taskgraph.Builder.add_task b ~name:"y" ~compute:(Task.make_compute ~elems:1000.0 ~ii:1.0 ()) () in
  ignore (Taskgraph.Builder.add_fifo b ~src:x ~dst:y ~elems:1000.0 ());
  ignore (Taskgraph.Builder.add_fifo b ~src:y ~dst:x ~elems:1000.0 ());
  let g = Taskgraph.Builder.build b in
  let board = Board.u55c () in
  let cluster = Cluster.make ~board:(fun () -> board) 1 in
  let synthesis = Synthesis.run ~board g in
  let r =
    Design_sim.run
      (Design_sim.make_config ~graph:g ~assignment:[| 0; 0 |] ~freq_mhz:[| 300.0 |] ~cluster
         ~synthesis ())
  in
  check bool "cycle completes via credits" true (r.deadlocked = [])

let test_design_sim_memory_bound () =
  (* A reader whose port is narrow must be slower than compute alone. *)
  let make bw =
    let b = Taskgraph.Builder.create () in
    let p =
      Taskgraph.Builder.add_task b ~name:"rd"
        ~compute:(Task.make_compute ~elems:1e6 ~ii:1.0 ())
        ~mem_ports:[ Task.mem_port ~dir:Task.Read ~width_bits:256 ~bytes:1e9 () ]
        ()
    in
    ignore p;
    let g = Taskgraph.Builder.build b in
    let board = Board.u55c () in
    let cluster = Cluster.make ~board:(fun () -> board) 1 in
    let synthesis = Synthesis.run ~board g in
    Design_sim.run
      (Design_sim.make_config
         ~port_bandwidth_gbps:(fun _ _ -> bw)
         ~graph:g ~assignment:[| 0 |] ~freq_mhz:[| 300.0 |] ~cluster ~synthesis ())
  in
  let fast = make 14.4 and slow = make 1.0 in
  check bool "bandwidth starvation slows the task" true (slow.latency_s > fast.latency_s *. 5.0)

let test_design_sim_link_contention () =
  (* Many parallel streams over one FPGA pair share one port. *)
  let make n =
    let b = Taskgraph.Builder.create () in
    let srcs = List.init n (fun i -> Taskgraph.Builder.add_task b ~name:(Printf.sprintf "s%d" i) ~compute:(Task.make_compute ~elems:1e5 ~ii:1.0 ()) ()) in
    let dsts = List.init n (fun i -> Taskgraph.Builder.add_task b ~name:(Printf.sprintf "d%d" i) ~compute:(Task.make_compute ~elems:1e5 ~ii:1.0 ()) ()) in
    List.iter2
      (fun s d -> ignore (Taskgraph.Builder.add_fifo b ~src:s ~dst:d ~width_bits:512 ~elems:1e7 ()))
      srcs dsts;
    let g = Taskgraph.Builder.build b in
    let board = Board.u55c () in
    let cluster = Cluster.make ~board:(fun () -> board) 2 in
    let synthesis = Synthesis.run ~board g in
    let assignment = Array.init (2 * n) (fun i -> if i < n then 0 else 1) in
    Design_sim.run
      (Design_sim.make_config ~graph:g ~assignment ~freq_mhz:[| 300.0; 300.0 |] ~cluster ~synthesis ())
  in
  let one = make 1 and four = make 4 in
  check bool "4 streams contend on the shared port" true (four.latency_s > one.latency_s *. 2.0)

let test_design_sim_validation () =
  let cfg = simple_design () in
  Alcotest.check_raises "bad clock" (Invalid_argument "Design_sim: clock must be positive")
    (fun () -> ignore (Design_sim.run { cfg with Design_sim.freq_mhz = [| 0.0 |] }));
  Alcotest.check_raises "clock count" (Invalid_argument "Design_sim: one clock per FPGA required")
    (fun () -> ignore (Design_sim.run { cfg with Design_sim.freq_mhz = [| 300.0; 300.0 |] }));
  Alcotest.check_raises "assignment range" (Invalid_argument "Design_sim: assignment out of range")
    (fun () -> ignore (Design_sim.run { cfg with Design_sim.assignment = [| 0; 5 |] }));
  Alcotest.check_raises "chunks" (Invalid_argument "Design_sim: chunks must be positive")
    (fun () -> ignore (Design_sim.run { cfg with Design_sim.chunks = 0 }))

let test_engine_exception_propagates () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> failwith "boom");
  Alcotest.check_raises "process exception surfaces" (Failure "boom") (fun () ->
      ignore (Engine.run e))

let test_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.spawn e ~name:"a" (fun () ->
      Engine.wait 1.0;
      fired := 1 :: !fired;
      Engine.wait 1.0;
      fired := 2 :: !fired);
  let r1 = Engine.run ~until:1.5 e in
  check (Alcotest.list int) "events <= until run, later ones stay queued" [ 1 ] (List.rev !fired);
  check fl "end_time is the last executed event, not the horizon" 1.0 r1.end_time;
  check bool "waiting on time is not a deadlock" true (r1.deadlocked = []);
  (* resuming the same engine drains the rest *)
  let r2 = Engine.run e in
  check (Alcotest.list int) "resumed run finishes" [ 1; 2 ] (List.rev !fired);
  check fl "final end time" 2.0 r2.end_time;
  (* a horizon past the last event never stretches end_time *)
  let e2 = Engine.create () in
  Engine.spawn e2 (fun () -> Engine.wait 1.0);
  check fl "end_time never overshoots an early-drained queue" 1.0
    (Engine.run ~until:5.0 e2).end_time

let test_channel_capacity_invariant () =
  (* Oversized pushes stream through in capacity-sized pieces; at no
     observable instant may the level leave [0, capacity]. *)
  let e = Engine.create () in
  let cap = 4.0 in
  let ch = Engine.Channel.create ~capacity:cap in
  let ok = ref true in
  let sample () =
    let lvl = Engine.Channel.level ch in
    if lvl < -1e-9 || lvl > cap +. 1e-9 then ok := false
  in
  Engine.spawn e ~name:"p" (fun () ->
      for _ = 1 to 5 do
        Engine.Channel.push ch 10.0;
        sample ()
      done);
  Engine.spawn e ~name:"q" (fun () ->
      for _ = 1 to 25 do
        Engine.wait 0.1;
        Engine.Channel.pull ch 2.0;
        sample ()
      done);
  let r = Engine.run e in
  check bool "no deadlock" true (r.deadlocked = []);
  check bool "level stayed inside [0, capacity]" true !ok;
  check fl "conservation" (Engine.Channel.total_pushed ch)
    (Engine.Channel.total_pulled ch +. Engine.Channel.level ch)

(* The schedule of two compiled stencils, pinned as exact (%h) floats:
   the latency and every link's bytes and busy time. *)
let test_stencil_schedule_golden () =
  let buf = Buffer.create 256 in
  List.iter
    (fun fpgas ->
      let app = Tapa_cs_apps.Stencil.generate (Tapa_cs_apps.Stencil.make_config ~iterations:64 ~fpgas ()) in
      let options = { Tapa_cs.Compiler.default_options with Tapa_cs.Compiler.jobs = 1 } in
      let cluster = Cluster.make ~board:Board.u55c fpgas in
      match Tapa_cs.Flow.tapa_cs ~options ~cluster app.Tapa_cs_apps.App.graph with
      | Error e -> Alcotest.fail e
      | Ok d ->
        let r = Design_sim.run ~cache:false (Tapa_cs.Flow.sim_config d) in
        let name = Printf.sprintf "stencil 64x%d" fpgas in
        Printf.bprintf buf "%s latency_s %h\n" name r.latency_s;
        List.iter
          (fun (l : Design_sim.link_stat) ->
            Printf.bprintf buf "%s link %d->%d bytes %h busy_s %h\n" name l.src_fpga l.dst_fpga
              l.bytes l.busy_s)
          r.links)
    [ 2; 4 ];
  Golden_file.check "design_sim_stencil.expected" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Fault-injected outcomes (tentpole)                                  *)
(* ------------------------------------------------------------------ *)

let test_outcome_completed () =
  match Design_sim.run_outcome (simple_design ~cross:true ()) with
  | Design_sim.Completed r ->
    check bool "same result as run" true
      (r.latency_s = (Design_sim.run (simple_design ~cross:true ())).latency_s)
  | _ -> Alcotest.fail "fault-free run must report Completed"

let test_outcome_lossy_links_degrade () =
  let clean =
    match Design_sim.run_outcome (simple_design ~cross:true ()) with
    | Design_sim.Completed r -> r
    | _ -> Alcotest.fail "clean run"
  in
  let faults = Tapa_cs_network.Fault.make ~loss_rate:0.05 () in
  match Design_sim.run_outcome ~faults (simple_design ~cross:true ()) with
  | Design_sim.Degraded { result; reasons } ->
    check bool "loss reason reported" true
      (List.exists (fun r -> String.length r > 0) reasons && reasons <> []);
    check bool "lossy run is slower" true (result.latency_s > clean.latency_s)
  | _ -> Alcotest.fail "lossy run must report Degraded"

let test_outcome_loss_local_only_is_harmless () =
  (* Loss only derates inter-FPGA links; a single-FPGA design still
     reports Degraded (the fault was requested) but keeps its latency. *)
  let clean =
    match Design_sim.run_outcome (simple_design ()) with
    | Design_sim.Completed r -> r
    | _ -> Alcotest.fail "clean run"
  in
  let faults = Tapa_cs_network.Fault.make ~loss_rate:0.05 () in
  match Design_sim.run_outcome ~faults (simple_design ()) with
  | Design_sim.Degraded { result; _ } -> check fl "latency unchanged" clean.latency_s result.latency_s
  | Design_sim.Completed _ -> ()
  | Design_sim.Failed _ -> Alcotest.fail "must not fail"

let test_outcome_fifo_stall_degrades () =
  let clean =
    match Design_sim.run_outcome (simple_design ~cross:true ()) with
    | Design_sim.Completed r -> r
    | _ -> Alcotest.fail "clean run"
  in
  let faults = Tapa_cs_network.Fault.make ~fifo_stalls:[ (0, 0.0, 1e-3) ] () in
  match Design_sim.run_outcome ~faults (simple_design ~cross:true ()) with
  | Design_sim.Degraded { result; reasons } ->
    check bool "stall reason reported" true (reasons <> []);
    check bool "stall adds about its duration" true
      (result.latency_s >= clean.latency_s +. 0.9e-3)
  | _ -> Alcotest.fail "stalled run must report Degraded"

let test_outcome_chained_stall_windows () =
  (* Two back-to-back stall windows on the same FIFO, listed out of
     order: serving the first lands the process exactly at the start of
     the second.  The fixpoint walk must serve both; the old single-pass
     walk over unsorted windows silently skipped the second. *)
  let clean =
    match Design_sim.run_outcome (simple_design ~cross:true ()) with
    | Design_sim.Completed r -> r
    | _ -> Alcotest.fail "clean run"
  in
  let faults =
    Tapa_cs_network.Fault.make ~fifo_stalls:[ (0, 2e-3, 1e-3); (0, 1e-3, 1e-3) ] ()
  in
  match Design_sim.run_outcome ~faults (simple_design ~cross:true ()) with
  | Design_sim.Degraded { result; _ } ->
    check bool "both chained windows served" true
      (result.latency_s >= clean.latency_s +. 1.9e-3)
  | _ -> Alcotest.fail "stalled run must report Degraded"

let test_outcome_device_halt_fails () =
  (* Halting the consumer's FPGA at t=0 starves the producer: the run
     cannot finish and must classify as Failed, attributing the halt. *)
  let faults = Tapa_cs_network.Fault.make ~device_halts:[ (1, 0.0) ] () in
  match Design_sim.run_outcome ~faults (simple_design ~cross:true ()) with
  | Design_sim.Failed { fault; partial } ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
      at 0
    in
    check bool "halt attributed" true (contains fault "halt");
    check bool "partial stats present" true (partial.latency_s >= 0.0)
  | Design_sim.Completed _ -> Alcotest.fail "halted run must not complete"
  | Design_sim.Degraded _ -> Alcotest.fail "halted run must not merely degrade"

let test_outcome_deterministic () =
  let faults = Tapa_cs_network.Fault.make ~seed:5 ~loss_rate:0.02 ~fifo_stalls:[ (0, 1e-4, 5e-4) ] () in
  let latency () =
    match Design_sim.run_outcome ~faults (simple_design ~cross:true ()) with
    | Design_sim.Degraded { result; _ } -> result.latency_s
    | Design_sim.Completed r -> r.latency_s
    | Design_sim.Failed _ -> Alcotest.fail "must finish"
  in
  check fl "bit-identical across runs" (latency ()) (latency ())

(* Random layered fan-out/fan-in pipeline split over 2 FPGAs — the corpus
   the conservation property draws from. *)
let random_pipeline_config seed =
  let rng = Tapa_cs_util.Prng.create seed in
  let b = Taskgraph.Builder.create () in
  let stages = 2 + Tapa_cs_util.Prng.int rng 4 in
  let widths = [| 1; 2; 4 |] in
  (* layered DAG: every node in layer i feeds >= 1 node in layer i+1 *)
  let layers =
    Array.init stages (fun li ->
        Array.init
          (1 + Tapa_cs_util.Prng.int rng widths.(li mod 3))
          (fun ni ->
            Taskgraph.Builder.add_task b
              ~name:(Printf.sprintf "l%dn%d" li ni)
              ~compute:(Task.make_compute ~elems:(float_of_int (100 + Tapa_cs_util.Prng.int rng 1000)) ~ii:1.0 ())
              ()))
  in
  for li = 0 to stages - 2 do
    Array.iter
      (fun src ->
        let dst = layers.(li + 1).(Tapa_cs_util.Prng.int rng (Array.length layers.(li + 1))) in
        ignore
          (Taskgraph.Builder.add_fifo b ~src ~dst
             ~elems:(float_of_int (50 + Tapa_cs_util.Prng.int rng 500))
             ()))
      layers.(li)
  done;
  (* make sure every layer-i+1 node has an input: connect from node 0 *)
  for li = 0 to stages - 2 do
    Array.iter
      (fun dst ->
        ignore
          (Taskgraph.Builder.add_fifo b ~src:layers.(li).(0) ~dst ~elems:100.0 ()))
      layers.(li + 1)
  done;
  let g = Taskgraph.Builder.build b in
  let board = Board.u55c () in
  let cluster = Cluster.make ~board:(fun () -> board) 2 in
  let synthesis = Synthesis.run ~board g in
  let assignment = Array.init (Taskgraph.num_tasks g) (fun _ -> Tapa_cs_util.Prng.int rng 2) in
  Design_sim.make_config ~chunks:8 ~graph:g ~assignment ~freq_mhz:[| 300.0; 250.0 |] ~cluster
    ~synthesis ()

(* Property: random fan-out/fan-in pipelines conserve bytes on every
   channel and never deadlock. *)
let prop_random_pipelines_conserve =
  QCheck.Test.make ~name:"random pipelines complete and conserve" ~count:40
    (QCheck.int_range 0 10_000)
    (fun seed ->
      let r = Design_sim.run ~cache:false (random_pipeline_config seed) in
      r.deadlocked = [] && r.latency_s > 0.0
      && Array.for_all
           (fun (t : Design_sim.task_stat) -> t.finish_s <= r.latency_s +. 1e-9)
           r.tasks)

(* ------------------------------------------------------------------ *)
(* Sweep harness, cache                                                *)
(* ------------------------------------------------------------------ *)

let test_sweep_jobs_identity () =
  let points =
    Array.map
      (fun chunks ->
        Sim_sweep.job ~label:(string_of_int chunks)
          { (simple_design ~cross:true ()) with Design_sim.chunks })
      [| 4; 8; 16; 32 |]
  in
  let seq = Sim_sweep.run ~jobs:1 ~cache:false points in
  let par = Sim_sweep.run ~jobs:4 ~cache:false points in
  check bool "jobs=1 and jobs=4 rows byte-identical" true (seq = par);
  Array.iteri
    (fun i (label, _) ->
      check Alcotest.string "labels in job order" (string_of_int [| 4; 8; 16; 32 |].(i)) label)
    seq

let test_cache_cold_warm_and_keys () =
  Design_sim.reset_cache ();
  let cfg = simple_design ~cross:true () in
  let cold = Design_sim.run cfg in
  let warm = Design_sim.run cfg in
  check bool "cold and warm results bit-identical (full record)" true (cold = warm);
  check bool "warm hit returns a fresh copy, not the cached arrays" true
    (not (cold.Design_sim.per_fpga_busy_s == warm.Design_sim.per_fpga_busy_s));
  check bool "one miss then one hit" true (Design_sim.cache_stats () = (1, 1));
  ignore (Design_sim.run { cfg with Design_sim.chunks = 32 });
  check bool "chunk count is part of the key" true (snd (Design_sim.cache_stats ()) = 2);
  Design_sim.reset_cache ();
  check bool "reset drops entries and zeroes counters" true (Design_sim.cache_stats () = (0, 0))

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_random_pipelines_conserve ]

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "event ordering" `Quick test_wait_orders_events;
          Alcotest.test_case "FIFO order at equal time" `Quick test_same_time_fifo_order;
          Alcotest.test_case "negative wait" `Quick test_negative_wait_rejected;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "run ~until semantics" `Quick test_run_until;
        ] );
      ( "channel",
        [
          Alcotest.test_case "backpressure" `Quick test_channel_backpressure;
          Alcotest.test_case "oversized messages" `Quick test_channel_oversized_message_streams;
          Alcotest.test_case "capacity invariant" `Quick test_channel_capacity_invariant;
          Alcotest.test_case "float rounding regression" `Quick test_channel_no_float_wedge;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        ] );
      ( "server",
        [
          Alcotest.test_case "serialization + latency" `Quick test_server_serializes;
          Alcotest.test_case "per-packet overhead" `Quick test_server_per_packet_overhead;
        ] );
      ( "design_sim",
        [
          Alcotest.test_case "local pipeline" `Quick test_design_sim_local;
          Alcotest.test_case "cross-FPGA stream" `Quick test_design_sim_cross_fpga;
          Alcotest.test_case "bulk serializes" `Quick test_design_sim_bulk_serializes;
          Alcotest.test_case "feedback cycles" `Quick test_design_sim_cycle_credits;
          Alcotest.test_case "memory-bound tasks" `Quick test_design_sim_memory_bound;
          Alcotest.test_case "link contention" `Quick test_design_sim_link_contention;
          Alcotest.test_case "config validation" `Quick test_design_sim_validation;
          Alcotest.test_case "exception propagation" `Quick test_engine_exception_propagates;
          Alcotest.test_case "stencil schedule golden" `Quick test_stencil_schedule_golden;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "sweep jobs identity" `Quick test_sweep_jobs_identity;
          Alcotest.test_case "cache cold/warm + key sensitivity" `Quick test_cache_cold_warm_and_keys;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "fault-free completes" `Quick test_outcome_completed;
          Alcotest.test_case "lossy links degrade" `Quick test_outcome_lossy_links_degrade;
          Alcotest.test_case "local design shrugs off loss" `Quick test_outcome_loss_local_only_is_harmless;
          Alcotest.test_case "fifo stall degrades" `Quick test_outcome_fifo_stall_degrades;
          Alcotest.test_case "chained stall windows (fixpoint)" `Quick test_outcome_chained_stall_windows;
          Alcotest.test_case "device halt fails" `Quick test_outcome_device_halt_fails;
          Alcotest.test_case "deterministic outcomes" `Quick test_outcome_deterministic;
        ] );
      ("properties", qsuite);
    ]
