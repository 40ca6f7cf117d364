type link_kind = Ethernet_100g | Pcie_gen3x16

type t = {
  boards : Board.t array;
  topology : Topology.t;
  link : link_kind;
  node_of : int -> int;
  num_nodes : int;
}

let make ?(link = Ethernet_100g) ?(topology = Topology.Ring) ~board n =
  if n <= 0 then invalid_arg "Cluster.make: need at least one FPGA";
  {
    boards = Array.init n (fun _ -> board ());
    topology;
    link;
    node_of = (fun _ -> 0);
    num_nodes = 1;
  }

let heterogeneous ?(link = Ethernet_100g) ?(topology = Topology.Ring) ?(boards_per_node = 4)
    mix n =
  if mix = [] then invalid_arg "Cluster.heterogeneous: empty board mix";
  if n <= 0 then invalid_arg "Cluster.heterogeneous: need at least one FPGA";
  if boards_per_node <= 0 then invalid_arg "Cluster.heterogeneous: boards_per_node <= 0";
  let mix = Array.of_list mix in
  {
    boards = Array.init n (fun i -> mix.(i mod Array.length mix) ());
    topology;
    link;
    node_of = (fun i -> i / boards_per_node);
    num_nodes = (n + boards_per_node - 1) / boards_per_node;
  }

let two_node_testbed () =
  {
    boards = Array.init 8 (fun _ -> Board.u55c ());
    (* Two 4-FPGA rings; modeled as one ring whose 4/0 boundary is the
       inter-node hop.  Distances within a node follow the ring metric. *)
    topology = Topology.Ring;
    link = Ethernet_100g;
    node_of = (fun i -> i / 4);
    num_nodes = 2;
  }

let size t = Array.length t.boards
let board t i = t.boards.(i)

let dist t i j = Topology.dist t.topology ~total:(size t) i j
let same_node t i j = t.node_of i = t.node_of j

let lambda t = match t.link with Ethernet_100g -> 1.0 | Pcie_gen3x16 -> Constants.pcie_cost_scale

let link_bandwidth_gbytes t i j =
  if i = j then Constants.hbm_bandwidth_gbps
  else if not (same_node t i j) then Constants.inter_node_gbps
  else begin
    match t.link with
    | Ethernet_100g -> Constants.inter_fpga_gbps
    | Pcie_gen3x16 -> Constants.inter_fpga_gbps /. Constants.pcie_cost_scale
  end

let link_rtt_us t i j =
  if i = j then 0.0
  else if not (same_node t i j) then 100.0 (* device->host->NIC->host->device *)
  else begin
    match t.link with
    | Ethernet_100g -> Constants.alveolink_rtt_us
    | Pcie_gen3x16 -> Constants.pcie_rtt_ns /. 1000.0
  end

type view = { cluster : t; down : bool array }

let full_view cluster = { cluster; down = Array.make (size cluster) false }

let set_down view d flag =
  if d < 0 || d >= Array.length view.down || view.down.(d) = flag then view
  else begin
    let down = Array.copy view.down in
    down.(d) <- flag;
    { view with down }
  end

let prune_device view d = set_down view d true
let restore_device view d = set_down view d false
let alive view d = d >= 0 && d < Array.length view.down && not view.down.(d)

let alive_devices view =
  List.filter (fun d -> not view.down.(d)) (List.init (Array.length view.down) Fun.id)

let num_alive view = Array.fold_left (fun acc b -> if b then acc else acc + 1) 0 view.down

let failed_devices view =
  List.filter (fun d -> view.down.(d)) (List.init (Array.length view.down) Fun.id)

let pp fmt t =
  Format.fprintf fmt "%d x %s over %a (%s), %d node(s)" (size t) t.boards.(0).Board.name
    Topology.pp t.topology
    (match t.link with Ethernet_100g -> "100G Ethernet" | Pcie_gen3x16 -> "PCIe Gen3x16")
    t.num_nodes
