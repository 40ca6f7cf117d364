(* Tests for the device models: resource vectors, boards, topologies,
   clusters, and the calibration constants. *)

open Tapa_cs_device

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Resource                                                            *)
(* ------------------------------------------------------------------ *)

let test_resource_arith () =
  let a = Resource.make ~lut:100 ~ff:200 ~bram:3 ~dsp:4 ~uram:5 () in
  let b = Resource.make ~lut:10 ~ff:20 ~bram:1 ~dsp:1 ~uram:1 () in
  let s = Resource.add a b in
  check int "lut" 110 s.Resource.lut;
  check int "uram" 6 s.Resource.uram;
  let d = Resource.sub s b in
  check bool "sub inverts add" true (Resource.equal d a);
  check bool "sum" true (Resource.equal (Resource.sum [ a; b; b ]) (Resource.add a (Resource.scale_int 2 b)))

let test_resource_scale_rounds_up () =
  let a = Resource.make ~lut:10 () in
  check int "ceil scaling" 4 (Resource.scale 0.35 a).Resource.lut

let test_resource_fits () =
  let small = Resource.make ~lut:10 ~bram:5 () in
  let big = Resource.make ~lut:20 ~ff:1 ~bram:5 ~dsp:1 ~uram:1 () in
  check bool "fits" true (Resource.fits small ~within:big);
  check bool "not fits (one component)" false
    (Resource.fits (Resource.make ~lut:10 ~bram:6 ()) ~within:big);
  check bool "exceeds" true (Resource.exceeds (Resource.make ~dsp:2 ()) ~limit:big)

let test_resource_utilization () =
  let total = Resource.make ~lut:100 ~ff:100 ~bram:100 ~dsp:100 ~uram:100 () in
  let used = Resource.make ~lut:10 ~ff:20 ~bram:90 ~dsp:5 () in
  check (Alcotest.float 1e-9) "max component" 0.9 (Resource.utilization used ~total);
  check Alcotest.string "binding resource" "BRAM" (Resource.max_component_name used ~total);
  check (Alcotest.float 1e-9) "zero total safe" 0.0
    (Resource.utilization Resource.zero ~total:Resource.zero)

(* ------------------------------------------------------------------ *)
(* Board                                                               *)
(* ------------------------------------------------------------------ *)

let test_u55c_shape () =
  let b = Board.u55c () in
  check int "rows" 3 b.Board.rows;
  check int "cols" 2 b.Board.cols;
  check int "slots" 6 (Board.num_slots b);
  (* Paper Table 2 *)
  check int "LUT" 1_146_240 b.Board.total.Resource.lut;
  check int "FF" 2_292_480 b.Board.total.Resource.ff;
  check int "BRAM" 1776 b.Board.total.Resource.bram;
  check int "DSP" 8376 b.Board.total.Resource.dsp;
  check int "URAM" 960 b.Board.total.Resource.uram;
  check int "HBM channels" 32 b.Board.num_hbm_channels;
  check int "QSFP ports" 2 b.Board.num_qsfp;
  check (Alcotest.float 1e-9) "max freq" 300.0 b.Board.max_freq_mhz

let test_u55c_hbm_bottom_row () =
  let b = Board.u55c () in
  let hbm = Board.hbm_slots b in
  check int "two HBM slots" 2 (List.length hbm);
  List.iter (fun s -> check int "bottom row" 0 (b.Board.slots.(s)).Board.row) hbm;
  (* all 32 channels reachable *)
  let chans = List.concat_map (fun s -> (b.Board.slots.(s)).Board.hbm_channels) hbm in
  check int "all channels exposed" 32 (List.length (List.sort_uniq compare chans))

let test_board_manhattan () =
  let b = Board.u55c () in
  let s00 = Board.slot_index b ~row:0 ~col:0 in
  let s21 = Board.slot_index b ~row:2 ~col:1 in
  check int "manhattan" 3 (Board.manhattan b s00 s21);
  check int "self distance" 0 (Board.manhattan b s00 s00);
  check int "die crossings" 2 (Board.die_crossings b s00 s21)

let test_board_capacity_partition () =
  let b = Board.u55c () in
  let sum =
    Array.fold_left (fun acc (s : Board.slot) -> Resource.add acc s.Board.capacity) Resource.zero
      b.Board.slots
  in
  (* Per-slot ceil rounding can only overshoot. *)
  check bool "slots cover total" true (Resource.fits b.Board.total ~within:sum)

let test_other_boards () =
  let u250 = Board.u250 () in
  check int "u250 slots" 8 (Board.num_slots u250);
  let s10 = Board.stratix10 () in
  check int "stratix slots" 4 (Board.num_slots s10);
  check int "stratix single die" 0 (Board.die_crossings s10 0 3)

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let test_topology_daisy_chain () =
  check int "chain" 3 (Topology.dist Topology.Daisy_chain ~total:4 0 3);
  check int "chain adjacent" 1 (Topology.dist Topology.Daisy_chain ~total:4 1 2)

let test_topology_ring () =
  (* Eq. 3 ring variant: min(|i-j|, total - |i-j|) *)
  check int "ring wraps" 1 (Topology.dist Topology.Ring ~total:4 0 3);
  check int "ring half" 2 (Topology.dist Topology.Ring ~total:4 0 2);
  check int "ring 8" 3 (Topology.dist Topology.Ring ~total:8 1 6)

let test_topology_bus_star () =
  check int "bus" 1 (Topology.dist Topology.Bus ~total:5 0 4);
  check int "star via hub" 2 (Topology.dist Topology.Star ~total:5 1 4);
  check int "star to hub" 1 (Topology.dist Topology.Star ~total:5 0 4)

let test_topology_mesh_hypercube () =
  check int "mesh" 3 (Topology.dist (Topology.Mesh 2) ~total:6 0 5);
  check int "hypercube" 3 (Topology.dist Topology.Hypercube ~total:8 0 7);
  check int "hypercube 1 bit" 1 (Topology.dist Topology.Hypercube ~total:8 2 3);
  Alcotest.check_raises "hypercube size" (Invalid_argument "Topology.Hypercube: size must be a power of two")
    (fun () -> ignore (Topology.dist Topology.Hypercube ~total:6 0 1));
  let size_check = Alcotest.(result unit string) in
  check size_check "hypercube of 8" (Ok ()) (Topology.check_size Topology.Hypercube 8);
  check size_check "hypercube of 6"
    (Error "a hypercube needs a power-of-two number of devices, got 6")
    (Topology.check_size Topology.Hypercube 6);
  check size_check "ring of 3" (Ok ()) (Topology.check_size Topology.Ring 3)

let test_topology_neighbors_diameter () =
  check (Alcotest.list int) "ring neighbors" [ 1; 3 ] (Topology.neighbors Topology.Ring ~total:4 0);
  check int "chain diameter" 3 (Topology.diameter Topology.Daisy_chain ~total:4);
  check int "ring diameter" 2 (Topology.diameter Topology.Ring ~total:4)

(* Metric axioms over all topologies and pairs. *)
let prop_topology_metric =
  QCheck.Test.make ~name:"topology distances are metrics" ~count:200
    QCheck.(triple (int_range 0 7) (int_range 0 7) (int_range 0 7))
    (fun (i, j, k) ->
      List.for_all
        (fun topo ->
          let d = Topology.dist topo ~total:8 in
          d i j = d j i && d i i = 0 && (i = j || d i j > 0) && d i k <= d i j + d j k)
        (Topology.all_basic 8))

(* ------------------------------------------------------------------ *)
(* Cluster                                                             *)
(* ------------------------------------------------------------------ *)

let test_cluster_single_node () =
  let c = Cluster.make ~board:Board.u55c 4 in
  check int "size" 4 (Cluster.size c);
  check bool "same node" true (Cluster.same_node c 0 3);
  check (Alcotest.float 1e-9) "lambda ethernet" 1.0 (Cluster.lambda c);
  check (Alcotest.float 1e-9) "link bw GB/s" 12.5 (Cluster.link_bandwidth_gbytes c 0 1);
  check (Alcotest.float 1e-9) "rtt" 1.0 (Cluster.link_rtt_us c 0 1)

let test_cluster_pcie () =
  let c = Cluster.make ~link:Cluster.Pcie_gen3x16 ~board:Board.u55c 2 in
  check (Alcotest.float 1e-9) "lambda pcie" 12.5 (Cluster.lambda c);
  check (Alcotest.float 1e-6) "pcie bw = ethernet / 12.5" 1.0 (Cluster.link_bandwidth_gbytes c 0 1)

let test_two_node_testbed () =
  let c = Cluster.two_node_testbed () in
  check int "8 FPGAs" 8 (Cluster.size c);
  check int "2 nodes" 2 c.Cluster.num_nodes;
  check bool "0 and 3 same node" true (Cluster.same_node c 0 3);
  check bool "3 and 4 cross node" false (Cluster.same_node c 3 4);
  check (Alcotest.float 1e-9) "inter-node bw 10Gbps" 1.25 (Cluster.link_bandwidth_gbytes c 3 4);
  check bool "inter-node slower than intra"
    true
    (Cluster.link_bandwidth_gbytes c 3 4 < Cluster.link_bandwidth_gbytes c 0 1)

let test_heterogeneous_farm () =
  let mix = [ Board.u55c; Board.u250; Board.stratix10 ] in
  let c = Cluster.heterogeneous ~boards_per_node:4 mix 10 in
  check int "10 boards" 10 (Cluster.size c);
  check int "3 nodes of <=4" 3 c.Cluster.num_nodes;
  (* The mix cycles: board i has the model of mix[i mod 3]. *)
  let u55c = Board.u55c () and u250 = Board.u250 () and s10 = Board.stratix10 () in
  check Alcotest.string "board 0 is u55c" u55c.Board.name (Cluster.board c 0).Board.name;
  check Alcotest.string "board 1 is u250" u250.Board.name (Cluster.board c 1).Board.name;
  check Alcotest.string "board 2 is stratix10" s10.Board.name (Cluster.board c 2).Board.name;
  check Alcotest.string "board 3 cycles back" u55c.Board.name (Cluster.board c 3).Board.name;
  (* Node grouping: 0..3 share a node, 4 starts the next one. *)
  check bool "0 and 3 same node" true (Cluster.same_node c 0 3);
  check bool "3 and 4 cross node" false (Cluster.same_node c 3 4);
  check bool "cross-node slower" true
    (Cluster.link_bandwidth_gbytes c 3 4 < Cluster.link_bandwidth_gbytes c 0 1);
  (* Invalid shapes are rejected. *)
  let rejects name bad =
    check bool name true (match bad () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "empty mix" (fun () -> Cluster.heterogeneous [] 4);
  rejects "zero boards" (fun () -> Cluster.heterogeneous mix 0);
  rejects "zero per node" (fun () -> Cluster.heterogeneous ~boards_per_node:0 mix 4)

let test_survivor_views () =
  let c = Cluster.make ~board:Board.u55c 4 in
  let v = Cluster.full_view c in
  check int "all alive initially" 4 (Cluster.num_alive v);
  check (Alcotest.list int) "no failures" [] (Cluster.failed_devices v);
  let v2 = Cluster.prune_device v 2 in
  (* Persistence: the original view is untouched. *)
  check int "original still 4 alive" 4 (Cluster.num_alive v);
  check int "pruned view 3 alive" 3 (Cluster.num_alive v2);
  check bool "2 dead in pruned" false (Cluster.alive v2 2);
  check (Alcotest.list int) "survivors ascend" [ 0; 1; 3 ] (Cluster.alive_devices v2);
  check (Alcotest.list int) "failed ascend" [ 2 ] (Cluster.failed_devices v2);
  (* Idempotence and physical sharing on no-ops. *)
  check bool "re-prune is a no-op" true (Cluster.prune_device v2 2 == v2);
  check bool "restore of alive is a no-op" true (Cluster.restore_device v2 0 == v2);
  check bool "out-of-range ignored" true
    (Cluster.prune_device v2 99 == v2 && Cluster.prune_device v2 (-1) == v2);
  let v3 = Cluster.restore_device v2 2 in
  check int "restored back to 4" 4 (Cluster.num_alive v3);
  check bool "underlying cluster shared" true (v3.Cluster.cluster == c)

let test_constants () =
  check (Alcotest.float 1e-9) "HBM aggregate" 460.0 Constants.hbm_bandwidth_gbps;
  check (Alcotest.float 1e-6) "per-channel" (460.0 /. 32.0) Constants.hbm_channel_bandwidth_gbps;
  check (Alcotest.float 1e-9) "SRAM/HBM latency ratio" 76.0 Constants.hbm_vs_sram_latency_ratio;
  check (Alcotest.float 1e-9) "pcie scale" 12.5 Constants.pcie_cost_scale;
  check int "table9 rows" 4 (List.length Constants.bandwidth_hierarchy);
  let b = Board.u55c () in
  let ov = Constants.alveolink_overhead_frac b.Board.total in
  check bool "alveolink LUT overhead ~2%" true
    (let f = float_of_int ov.Resource.lut /. float_of_int b.Board.total.Resource.lut in
     f > 0.0203 && f < 0.0206);
  check int "no DSP overhead" 0 ov.Resource.dsp

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_topology_metric ]

let () =
  Alcotest.run "device"
    [
      ( "resource",
        [
          Alcotest.test_case "arithmetic" `Quick test_resource_arith;
          Alcotest.test_case "scale rounds up" `Quick test_resource_scale_rounds_up;
          Alcotest.test_case "fits" `Quick test_resource_fits;
          Alcotest.test_case "utilization" `Quick test_resource_utilization;
        ] );
      ( "board",
        [
          Alcotest.test_case "u55c matches Table 2" `Quick test_u55c_shape;
          Alcotest.test_case "HBM pinned to bottom row" `Quick test_u55c_hbm_bottom_row;
          Alcotest.test_case "manhattan + die crossings" `Quick test_board_manhattan;
          Alcotest.test_case "slot capacities cover total" `Quick test_board_capacity_partition;
          Alcotest.test_case "u250 and stratix10" `Quick test_other_boards;
        ] );
      ( "topology",
        [
          Alcotest.test_case "daisy chain (Eq. 3)" `Quick test_topology_daisy_chain;
          Alcotest.test_case "ring" `Quick test_topology_ring;
          Alcotest.test_case "bus and star" `Quick test_topology_bus_star;
          Alcotest.test_case "mesh and hypercube" `Quick test_topology_mesh_hypercube;
          Alcotest.test_case "neighbors and diameter" `Quick test_topology_neighbors_diameter;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "single node ring" `Quick test_cluster_single_node;
          Alcotest.test_case "pcie scaling" `Quick test_cluster_pcie;
          Alcotest.test_case "two-node testbed (§5.7)" `Quick test_two_node_testbed;
          Alcotest.test_case "heterogeneous farm" `Quick test_heterogeneous_farm;
          Alcotest.test_case "survivor views" `Quick test_survivor_views;
          Alcotest.test_case "calibration constants" `Quick test_constants;
        ] );
      ("properties", qsuite);
    ]
