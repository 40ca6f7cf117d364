(* Tests for the link models and the Table-10 protocol library. *)

open Tapa_cs_device
open Tapa_cs_network

let check = Alcotest.check
let bool = Alcotest.bool
let fl = Alcotest.float 1e-9

let test_alveolink_parameters () =
  let l = Link.alveolink in
  check fl "line rate 12.5 GB/s" 12.5 l.Link.bandwidth_gbytes;
  check fl "one-way 0.5us (1us RTT, §4.4)" 0.5 l.Link.one_way_latency_us

let test_transfer_time_components () =
  let l = Link.alveolink in
  let setup_only = Link.transfer_time_s l 0.0 in
  check fl "zero bytes = setup" (0.5e-6) setup_only;
  let t1 = Link.transfer_time_s l 1e6 and t2 = Link.transfer_time_s l 2e6 in
  check bool "monotone in volume" true (t2 > t1);
  check bool "roughly linear for large transfers" true
    (let ratio = (t2 -. setup_only) /. (t1 -. setup_only) in
     ratio > 1.9 && ratio < 2.1)

let test_packet_size_effect () =
  (* §7: halving packet size increases total time. *)
  let l = Link.alveolink in
  let t64 = Link.transfer_time_s ~packet_bytes:64 l 64e6 in
  let t128 = Link.transfer_time_s ~packet_bytes:128 l 64e6 in
  let t4096 = Link.transfer_time_s ~packet_bytes:4096 l 64e6 in
  check bool "64B slower than 128B" true (t64 > t128);
  check bool "128B slower than 4KB" true (t128 > t4096);
  (* 64MB at 64B packets lands in the §7 millisecond regime *)
  check bool "6-7ms ballpark at 64B" true (t64 > 5e-3 && t64 < 8e-3)

let test_effective_throughput_curve () =
  (* Fig. 8 shape: throughput ramps with transfer size and saturates
     below the 100 Gb/s line rate. *)
  let l = Link.alveolink in
  let sizes = [ 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 ] in
  let tps = List.map (fun s -> Link.effective_throughput_gbps l s) sizes in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  check bool "monotone ramp" true (monotone tps);
  let peak = List.fold_left Float.max 0.0 tps in
  check bool "saturates near 90+ Gbps" true (peak > 85.0 && peak < 100.0);
  check bool "small transfers latency-dominated" true (List.hd tps < 20.0)

let test_pcie_slower () =
  (* §4.4: AlveoLink is 12.5x faster than PCIe Gen3x16. *)
  check bool "PCIe rate = Ethernet/12.5" true
    (Link.alveolink.Link.bandwidth_gbytes /. Link.pcie_p2p.Link.bandwidth_gbytes = 12.5);
  let va = Link.transfer_time_s Link.alveolink 1e9 in
  let vp = Link.transfer_time_s Link.pcie_p2p 1e9 in
  check bool "large transfer ~12x slower on PCIe" true (vp /. va > 10.0 && vp /. va < 15.0)

let test_host_mpi_slowest () =
  let v10g = Link.transfer_time_s Link.host_mpi_10g 1e9 in
  let veth = Link.transfer_time_s Link.alveolink 1e9 in
  check bool "inter-node ~10x slower (§5.7)" true (v10g /. veth > 8.0 && v10g /. veth < 12.0)

let test_table10_rows () =
  check Alcotest.int "7 protocols" 7 (List.length Protocol.all);
  let names = List.map (fun p -> p.Protocol.name) Protocol.all in
  check (Alcotest.list Alcotest.string) "paper order"
    [ "TMD-MPI"; "Galapagos"; "SMI"; "EasyNet"; "ZRLMPI"; "ACCL"; "AlveoLink" ]
    names

let test_alveolink_wins_tradeoff () =
  (* AlveoLink: EasyNet-class throughput at roughly half the overhead. *)
  let a = Protocol.alveolink and e = Protocol.easynet in
  check fl "same 90 Gbps class" a.Protocol.performance_gbps e.Protocol.performance_gbps;
  (match (a.Protocol.resource_overhead_pct, e.Protocol.resource_overhead_pct) with
  | Some ao, Some eo -> check bool "half the overhead" true (ao = 5.0 && eo = 10.0)
  | _ -> Alcotest.fail "overheads must be reported");
  check bool "device orchestrated" true (a.Protocol.orchestration = Protocol.Device);
  check bool "zrlmpi overhead unreported" true (Protocol.zrlmpi.Protocol.resource_overhead_pct = None)

let test_port_overhead_resources () =
  let b = Board.u55c () in
  let ov = Protocol.alveolink_port_overhead b in
  check bool "charges LUT FF BRAM only" true
    (ov.Resource.lut > 0 && ov.Resource.ff > 0 && ov.Resource.bram > 0 && ov.Resource.dsp = 0
   && ov.Resource.uram = 0)

(* ------------------------------------------------------------------ *)
(* Link.transfer_time_s edge cases (satellite)                         *)
(* ------------------------------------------------------------------ *)

let test_link_edge_cases () =
  let l = Link.alveolink in
  (* Zero-byte transfer: pure setup latency, no per-packet charge. *)
  check fl "zero bytes = setup only" (l.Link.one_way_latency_us *. 1e-6)
    (Link.transfer_time_s l 0.0);
  check fl "negative bytes treated as empty" (l.Link.one_way_latency_us *. 1e-6)
    (Link.transfer_time_s l (-5.0));
  (* packet_bytes larger than the message: exactly one packet is charged. *)
  let one_big = Link.transfer_time_s ~packet_bytes:1_000_000 l 100.0 in
  let expected =
    (l.Link.one_way_latency_us *. 1e-6)
    +. (l.Link.per_packet_overhead_ns *. 1e-9)
    +. (100.0 /. (l.Link.bandwidth_gbytes *. l.Link.derate *. 1e9))
  in
  check fl "oversized packet charges one packet" expected one_big;
  (* Derate bounds: every shipped preset keeps derate in (0, 1]. *)
  List.iter
    (fun (lk : Link.t) ->
      check bool (lk.Link.name ^ " derate in (0,1]") true
        (lk.Link.derate > 0.0 && lk.Link.derate <= 1.0))
    [ Link.alveolink; Link.pcie_p2p; Link.host_mpi_10g ];
  (* A derate below 1 strictly slows the wire component. *)
  let full = { l with Link.derate = 1.0 } in
  check bool "derate < 1 slows transfers" true
    (Link.transfer_time_s l 1e8 > Link.transfer_time_s full 1e8)

(* ------------------------------------------------------------------ *)
(* Fault model: closed forms and sampling (tentpole)                   *)
(* ------------------------------------------------------------------ *)

let test_fault_closed_forms () =
  let r = Fault.roce_v2 in
  (* E[transmissions] = (1 - p + N*p) / (1 - p). *)
  check fl "no loss, one transmission" 1.0 (Fault.expected_transmissions ~loss_rate:0.0 r);
  let p = 0.01 in
  check fl "go-back-N expectation"
    ((1.0 -. p +. (float_of_int r.Fault.window *. p)) /. (1.0 -. p))
    (Fault.expected_transmissions ~loss_rate:p r);
  (* E[timeout] = timeout * p * partial geometric sum. *)
  check fl "no loss, no timeouts" 0.0 (Fault.expected_timeout_s ~loss_rate:0.0 r);
  let ratio = p *. r.Fault.backoff in
  let geo = (1.0 -. (ratio ** float_of_int r.Fault.max_retries)) /. (1.0 -. ratio) in
  check fl "backed-off timeout expectation" (r.Fault.timeout_s *. p *. geo)
    (Fault.expected_timeout_s ~loss_rate:p r);
  (* The partial sum stays finite even at p*backoff >= 1. *)
  let heavy = { r with Fault.backoff = 4.0 } in
  check bool "finite past the geometric radius" true
    (Float.is_finite (Fault.expected_timeout_s ~loss_rate:0.5 heavy));
  (* Slowdown is 1 at p = 0 and grows with p. *)
  let l = Link.alveolink in
  check fl "slowdown 1 at p=0" 1.0 (Fault.slowdown ~loss_rate:0.0 l);
  check bool "slowdown grows with loss" true
    (Fault.slowdown ~loss_rate:0.05 l > Fault.slowdown ~loss_rate:0.01 l
    && Fault.slowdown ~loss_rate:0.01 l > 1.0)

let test_fault_transfer_time () =
  let l = Link.alveolink in
  (* fault = ideal reproduces Link.transfer_time_s exactly. *)
  List.iter
    (fun bytes ->
      check fl
        (Printf.sprintf "ideal fault = ideal link at %g B" bytes)
        (Link.transfer_time_s l bytes)
        (Fault.transfer_time_s ~fault:Fault.ideal l bytes))
    [ 0.0; 100.0; 1e6; 64e6 ];
  (* A down window the busy interval overlaps adds its remaining length. *)
  let ideal_t = Link.transfer_time_s l 1e6 in
  let fault = { Fault.ideal with Fault.down = [ (0.0, 1e-3) ] } in
  check fl "down window at t=0 adds its full length" (ideal_t +. 1e-3)
    (Fault.transfer_time_s ~fault l 1e6);
  (* A window entirely after completion adds nothing. *)
  let late = { Fault.ideal with Fault.down = [ (10.0, 11.0) ] } in
  check fl "late window adds nothing" ideal_t (Fault.transfer_time_s ~fault:late l 1e6);
  (* Starting inside the window waits it out. *)
  check fl "start mid-window waits" (ideal_t +. 0.5e-3)
    (Fault.transfer_time_s ~at:0.5e-3 ~fault l 1e6);
  (* Mean jitter is jitter/2 per packet. *)
  let jit = { Fault.ideal with Fault.jitter_s = 1e-6 } in
  let packets = Float.ceil (1e6 /. float_of_int l.Link.default_packet_bytes) in
  check fl "mean jitter jitter/2 per packet" (ideal_t +. (packets *. 0.5e-6))
    (Fault.transfer_time_s ~fault:jit l 1e6);
  (* Invalid fault specs are rejected. *)
  Alcotest.check_raises "loss_rate 1 rejected" (Invalid_argument "Fault: loss_rate 1 outside [0, 1)")
    (fun () -> ignore (Fault.transfer_time_s ~fault:(Fault.lossy 1.0) l 1e6))

let test_fault_sampling () =
  let l = Link.alveolink in
  let fault = Fault.lossy 0.02 in
  (* Same seed -> bit-identical sample; different seed -> (almost surely)
     different timeline. *)
  let sample seed =
    Fault.sample_transfer_time_s ~fault ~prng:(Tapa_cs_util.Prng.create seed) l 64e6
  in
  check fl "same seed, same sample" (sample 42) (sample 42);
  check bool "different seeds diverge" true (sample 42 <> sample 43);
  (* Sampled time is at least the loss-free wire time. *)
  check bool "sample >= ideal" true (sample 7 >= Link.transfer_time_s l 64e6);
  (* A link with max_retries = 0 gives up on the first loss. *)
  let fragile = { Fault.roce_v2 with Fault.max_retries = 0 } in
  let hot = Fault.lossy 0.9 in
  check bool "fragile link raises Link_lost" true
    (match
       Fault.sample_transfer_time_s ~retrans:fragile ~fault:hot
         ~prng:(Tapa_cs_util.Prng.create 1) l 64e6
     with
    | _ -> false
    | exception Fault.Link_lost _ -> true)

(* ------------------------------------------------------------------ *)
(* Fault-model edge cases and the link_fault smart constructor         *)
(* ------------------------------------------------------------------ *)

let test_fault_edge_cases () =
  let l = Link.alveolink in
  (* Loss rate at the open boundary: huge slowdown, but still finite and
     above the ideal time — the closed forms never divide by zero. *)
  let near_one = 1.0 -. 1e-9 in
  let t = Fault.transfer_time_s ~fault:(Fault.lossy near_one) l 1e6 in
  check bool "loss 1-1e-9 finite" true (Float.is_finite t);
  check bool "loss 1-1e-9 dominates ideal" true (t > Link.transfer_time_s l 1e6);
  check bool "expected transmissions finite at 1-1e-9" true
    (Float.is_finite (Fault.expected_transmissions ~loss_rate:near_one Fault.roce_v2));
  (* Link_lost carries the retry count at which the link gave up. *)
  let fragile = { Fault.roce_v2 with Fault.max_retries = 2 } in
  (match
     Fault.sample_transfer_time_s ~retrans:fragile ~fault:(Fault.lossy 0.999)
       ~prng:(Tapa_cs_util.Prng.create 5) l 64e6
   with
  | _ -> Alcotest.fail "0.999 loss with 2 retries must lose the link"
  | exception Fault.Link_lost { retries; link } ->
    check Alcotest.int "gave up at max_retries" 2 retries;
    check Alcotest.string "names the link" l.Link.name link);
  (* A transfer starting exactly at a window's stop edge is unaffected
     ([(start, stop)) is half-open); starting exactly at its start waits
     the full window. *)
  let ideal_t = Link.transfer_time_s l 1e6 in
  let fault = Fault.link_fault ~down:[ (1.0, 1.5) ] () in
  check fl "start at stop edge: untouched" ideal_t
    (Fault.transfer_time_s ~at:1.5 ~fault l 1e6);
  check fl "start at start edge: waits full window" (ideal_t +. 0.5)
    (Fault.transfer_time_s ~at:1.0 ~fault l 1e6);
  (* Zero jitter, zero loss: the sampler is fully deterministic and equals
     the closed form, whatever the seed. *)
  let plain = Fault.link_fault ~down:[ (0.0, 1e-3) ] () in
  let s seed =
    Fault.sample_transfer_time_s ~fault:plain ~prng:(Tapa_cs_util.Prng.create seed) l 1e6
  in
  check fl "zero-jitter sample seed-independent" (s 11) (s 99);
  (* Fault-free sampling consumes no randomness at all: identical across
     seeds and never below the ideal wire time (the sampler rounds the
     last partial packet up to a full service slot). *)
  let plain_sample seed =
    Fault.sample_transfer_time_s ~fault:Fault.ideal ~prng:(Tapa_cs_util.Prng.create seed) l 1e6
  in
  check fl "fault-free sample seed-independent" (plain_sample 11) (plain_sample 99);
  check bool "fault-free sample >= ideal" true (plain_sample 11 >= Link.transfer_time_s l 1e6)

let test_link_fault_constructor () =
  (* Windows are sorted, overlapping and touching windows merged,
     zero-length windows dropped. *)
  let f = Fault.link_fault ~down:[ (5.0, 6.0); (1.0, 2.0); (1.5, 3.0); (3.0, 4.0); (7.0, 7.0) ] () in
  check
    (Alcotest.list (Alcotest.pair fl fl))
    "sorted, merged, zero-length dropped"
    [ (1.0, 4.0); (5.0, 6.0) ]
    f.Fault.down;
  (* Invalid inputs are rejected with precise messages. *)
  let rejects name bad =
    check bool name true
      (match bad () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "negative window start" (fun () -> Fault.link_fault ~down:[ (-1.0, 2.0) ] ());
  rejects "stop before start" (fun () -> Fault.link_fault ~down:[ (3.0, 2.0) ] ());
  rejects "loss rate 1" (fun () -> Fault.link_fault ~loss_rate:1.0 ());
  rejects "negative jitter" (fun () -> Fault.link_fault ~jitter_s:(-1e-9) ());
  (* ideal/lossy go through the same validation path. *)
  check fl "ideal has no loss" 0.0 Fault.ideal.Fault.loss_rate;
  check fl "lossy keeps rate" 0.25 (Fault.lossy 0.25).Fault.loss_rate

let test_fleet_timeline () =
  let tl =
    Fault.timeline
      [
        (40.0, Fault.Device_down 3);
        (10.0, Fault.Link_down (5, 2));
        (90.0, Fault.Device_up 3);
        (55.0, Fault.Link_up (2, 5));
        (100.0, Fault.Loss_rate 0.05);
        (160.0, Fault.Loss_rate 0.0);
      ]
  in
  (* Sorted by time, link pairs normalized to (min, max). *)
  (match Fault.timeline_events tl with
  | (10.0, Fault.Link_down (2, 5)) :: _ -> ()
  | _ -> Alcotest.fail "expected normalized link-down first");
  check
    (Alcotest.list (Alcotest.pair fl fl))
    "device windows from down/up pairs"
    [ (40.0, 90.0) ]
    (Fault.device_down_windows tl ~horizon_s:600.0 3);
  (* A link is down while it is down OR either endpoint is: here only its
     own window matters (devices 2 and 5 never fail). *)
  check
    (Alcotest.list (Alcotest.pair fl fl))
    "link windows" [ (10.0, 55.0) ]
    (Fault.link_down_windows tl ~horizon_s:600.0 (2, 5));
  (* A link touching the downed device inherits its outage. *)
  check
    (Alcotest.list (Alcotest.pair fl fl))
    "endpoint outage folds into link windows"
    [ (40.0, 90.0) ]
    (Fault.link_down_windows tl ~horizon_s:600.0 (0, 3));
  (* Unclosed down events clamp at the horizon. *)
  let open_ended = Fault.timeline [ (500.0, Fault.Device_down 1) ] in
  check
    (Alcotest.list (Alcotest.pair fl fl))
    "open outage clamps to horizon"
    [ (500.0, 600.0) ]
    (Fault.device_down_windows open_ended ~horizon_s:600.0 1);
  (* Loss episodes close at the next Loss_rate event. *)
  (match Fault.loss_episodes tl ~horizon_s:600.0 with
  | [ (100.0, 160.0, rate) ] -> check fl "episode rate" 0.05 rate
  | eps -> Alcotest.failf "expected one loss episode, got %d" (List.length eps));
  (* The smart constructor rejects malformed events. *)
  let rejects name bad =
    check bool name true
      (match bad () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "negative timestamp" (fun () -> Fault.timeline [ (-1.0, Fault.Device_down 0) ]);
  rejects "self link" (fun () -> Fault.timeline [ (0.0, Fault.Link_down (2, 2)) ]);
  rejects "loss rate 1" (fun () -> Fault.timeline [ (0.0, Fault.Loss_rate 1.0) ])

let test_fault_spec_parsing () =
  (* parse_link_spec: the --fail-link format, normalized, never raising. *)
  check bool "0:3 parses normalized" true (Fault.parse_link_spec "3:0" = Ok (0, 3));
  check bool "self link rejected" true (Result.is_error (Fault.parse_link_spec "2:2"));
  check bool "garbage rejected" true (Result.is_error (Fault.parse_link_spec "a:b"));
  check bool "negative rejected" true (Result.is_error (Fault.parse_link_spec "-1:2"));
  (* parse_timeline_entry: the --timeline / --event line format. *)
  check bool "device-down line" true
    (Fault.parse_timeline_entry "40 device-down 3" = Ok (40.0, Fault.Device_down 3));
  check bool "link-up line normalized" true
    (Fault.parse_timeline_entry "55 link-up 5:2" = Ok (55.0, Fault.Link_up (2, 5)));
  check bool "loss line" true
    (Fault.parse_timeline_entry "100 loss 0.05" = Ok (100.0, Fault.Loss_rate 0.05));
  check bool "unknown verb rejected" true
    (Result.is_error (Fault.parse_timeline_entry "10 reboot 3"));
  check bool "missing argument rejected" true
    (Result.is_error (Fault.parse_timeline_entry "10 device-down"));
  check bool "negative time rejected" true
    (Result.is_error (Fault.parse_timeline_entry "-5 loss 0.1"))

(* A farm timeline event parses whatever its device indices; the farm
   then checks them against its board count, as the --fail-fpga and
   --fail-link flags are checked against the cluster.  "5 device-down
   99" and "6 link-down 0:77" on 4 boards were once counted as faults
   and the replay exited 0. *)
let test_fault_devices_in_cluster () =
  let in_farm line =
    Result.bind (Fault.parse_timeline_entry line) (fun (_, e) ->
        Fault.check_devices ~size:4 (Fault.event_devices e))
  in
  let outside = Error "device index outside the 4-device cluster (0..3)" in
  check bool "device 99 outside 4 boards" true (in_farm "5 device-down 99" = outside);
  check bool "link endpoint 77 outside 4 boards" true (in_farm "6 link-down 0:77" = outside);
  check bool "link 2:4 endpoint 4 outside" true (in_farm "6 link-up 2:4" = outside);
  check bool "device 3 inside" true (in_farm "5 device-up 3" = Ok ());
  check bool "link 0:3 inside" true (in_farm "6 link-down 0:3" = Ok ());
  check bool "loss names no device" true (in_farm "7 loss 0.01" = Ok ());
  check bool "a --fail-fpga index is checked the same way" true
    (Fault.check_devices ~size:2 [ 7 ] = Error "device index outside the 2-device cluster (0..1)");
  check bool "negative index outside" true (Result.is_error (Fault.check_devices ~size:2 [ -1 ]))

(* qcheck property: the faulty expected time dominates the ideal time and
   equals it at loss rate 0 (satellite). *)
let prop_faulty_dominates =
  QCheck.Test.make ~name:"faulty expected time >= ideal; equal at p=0" ~count:200
    QCheck.(pair (float_bound_exclusive 0.5) (float_range 1.0 1e8))
    (fun (p, bytes) ->
      let l = Link.alveolink in
      let ideal_t = Link.transfer_time_s l bytes in
      let faulty = Fault.transfer_time_s ~fault:(Fault.lossy p) l bytes in
      let at_zero = Fault.transfer_time_s ~fault:(Fault.lossy 0.0) l bytes in
      faulty >= ideal_t -. 1e-12 && Float.abs (at_zero -. ideal_t) < 1e-12)

let () =
  Alcotest.run "network"
    [
      ( "link",
        [
          Alcotest.test_case "alveolink parameters" `Quick test_alveolink_parameters;
          Alcotest.test_case "transfer time components" `Quick test_transfer_time_components;
          Alcotest.test_case "packet size (§7)" `Quick test_packet_size_effect;
          Alcotest.test_case "throughput curve (Fig. 8)" `Quick test_effective_throughput_curve;
          Alcotest.test_case "pcie 12.5x slower" `Quick test_pcie_slower;
          Alcotest.test_case "inter-node slowest" `Quick test_host_mpi_slowest;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "table 10 rows" `Quick test_table10_rows;
          Alcotest.test_case "alveolink tradeoff" `Quick test_alveolink_wins_tradeoff;
          Alcotest.test_case "port overhead (§5.6)" `Quick test_port_overhead_resources;
        ] );
      ( "faults",
        [
          Alcotest.test_case "link edge cases" `Quick test_link_edge_cases;
          Alcotest.test_case "closed forms" `Quick test_fault_closed_forms;
          Alcotest.test_case "faulty transfer time" `Quick test_fault_transfer_time;
          Alcotest.test_case "deterministic sampling" `Quick test_fault_sampling;
          Alcotest.test_case "edge cases" `Quick test_fault_edge_cases;
          Alcotest.test_case "link_fault constructor" `Quick test_link_fault_constructor;
          QCheck_alcotest.to_alcotest prop_faulty_dominates;
        ] );
      ( "timelines",
        [
          Alcotest.test_case "fleet timeline" `Quick test_fleet_timeline;
          Alcotest.test_case "fault-spec parsing" `Quick test_fault_spec_parsing;
          Alcotest.test_case "timeline devices checked against the farm" `Quick
            test_fault_devices_in_cluster;
        ] );
    ]
