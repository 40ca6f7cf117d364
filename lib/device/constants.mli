(** Calibration constants taken from the paper and public spec sheets.
    Everything numeric that anchors the models lives here (DESIGN.md §5). *)

val hbm_bandwidth_gbps : float
(** Aggregate HBM bandwidth of the U55C, 460 GB/s (Table 9). *)

val hbm_channels : int
(** HBM pseudo-channels exposed to user kernels on the U55C. *)

val hbm_channel_bandwidth_gbps : float
(** Per-channel bandwidth, 460/32 GB/s. *)

val inter_fpga_gbps : float
(** QSFP28 Ethernet line rate, 100 Gb/s == 12.5 GB/s (Table 9). *)

val inter_node_gbps : float
(** Host-side Ethernet between server nodes, 10 Gb/s (Table 9, §5.7). *)

val hbm_vs_sram_latency_ratio : float
(** HBM access is ~76x slower than on-chip access (§3, §4.5). *)

val pcie_cost_scale : float
(** λ scaling of the partitioner's communication cost when the medium is
    PCIe Gen3x16 instead of Ethernet: 12.5 (§4.3). *)

val alveolink_rtt_us : float
(** AlveoLink round-trip latency between two FPGAs, 1 µs (§4.4). *)

val pcie_rtt_ns : float
(** SMAPPIC-style PCIe Gen3x16 round-trip, 1250 ns (§6.2). *)

val utilization_threshold : float
(** Default per-resource utilization threshold T of Eq. 1. *)

val alveolink_overhead_frac : Resource.t -> Resource.t
(** Resource overhead of the AlveoLink networking IPs per QSFP28 port
    (§5.6): 2.04 % LUT, 2.94 % FF, 2.06 % BRAM, 0 % DSP/URAM of the given
    board total. *)

val bandwidth_hierarchy : (string * string) list
(** Table 9 rows: transfer level, bandwidth. *)
