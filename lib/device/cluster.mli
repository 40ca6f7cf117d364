(** A cluster of network-connected FPGAs (paper Fig. 1): a set of boards,
    the topology wiring their QSFP ports together, the link medium, and an
    optional grouping of boards into server nodes bridged by a slower
    host-side network (§5.7). *)

type link_kind = Ethernet_100g | Pcie_gen3x16

type t = {
  boards : Board.t array;
  topology : Topology.t;
  link : link_kind;
  node_of : int -> int;  (** server node hosting each FPGA *)
  num_nodes : int;
}

val make : ?link:link_kind -> ?topology:Topology.t -> board:(unit -> Board.t) -> int -> t
(** [make ~board n] builds a single-node cluster of [n] identical boards,
    ring-connected over 100 Gbps Ethernet by default (the paper's
    testbed). *)

val heterogeneous :
  ?link:link_kind ->
  ?topology:Topology.t ->
  ?boards_per_node:int ->
  (unit -> Board.t) list ->
  int ->
  t
(** [heterogeneous mix n] builds an [n]-board farm cycling through the
    board constructors of [mix] (e.g. U55C, U250, Stratix-10), grouped
    into server nodes of [boards_per_node] boards each (default 4, the
    paper's per-node testbed size; the last node may be short).
    @raise Invalid_argument on an empty mix, [n <= 0] or
    [boards_per_node <= 0]. *)

val two_node_testbed : unit -> t
(** The paper's §5.7 setup: two server nodes, each a 4-FPGA U55C ring,
    bridged by a 10 Gbps host link. *)

val size : t -> int
val board : t -> int -> Board.t

val dist : t -> int -> int -> int
(** Topology hop count between two FPGAs. *)

val same_node : t -> int -> int -> bool

val lambda : t -> float
(** Communication-cost scaling factor λ of Eq. 2: 1 for 100 Gbps Ethernet,
    12.5 for PCIe Gen3x16. *)

val link_bandwidth_gbytes : t -> int -> int -> float
(** Effective link bandwidth in GB/s between two FPGAs: the FPGA-to-FPGA
    medium within a node, the 10 Gbps host path across nodes. *)

val link_rtt_us : t -> int -> int -> float

val pp : Format.formatter -> t -> unit

(** {1 Survivor views}

    A farm controller tracks which devices of a fixed cluster are
    currently alive.  A {!view} is that overlay: the cluster itself never
    changes (indices stay stable for placements and caches), only the
    alive set does.  Views are persistent — {!prune_device} and
    {!restore_device} return fresh views, so a controller can keep the
    pre-fault view for accounting while it re-places tenants on the
    post-fault one. *)

type view = private { cluster : t; down : bool array }

val full_view : t -> view
(** Every device alive. *)

val prune_device : view -> int -> view
(** Mark a device dead (idempotent; out-of-range indices are ignored). *)

val restore_device : view -> int -> view
(** Bring a device back (idempotent; out-of-range indices are ignored). *)

val alive : view -> int -> bool
val alive_devices : view -> int list
(** Ascending device indices of the survivors. *)

val num_alive : view -> int
val failed_devices : view -> int list
(** Ascending device indices of the dead — the shape
    {!Tapa_cs_floorplan.Inter_fpga.run_degraded} consumes. *)
