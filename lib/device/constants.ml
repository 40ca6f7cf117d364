let hbm_bandwidth_gbps = 460.0
let hbm_channels = 32
let hbm_channel_bandwidth_gbps = hbm_bandwidth_gbps /. float_of_int hbm_channels
let inter_fpga_gbps = 100.0 /. 8.0 (* GB/s *)
let inter_node_gbps = 10.0 /. 8.0 (* GB/s *)
let hbm_vs_sram_latency_ratio = 76.0
let pcie_cost_scale = 12.5
let alveolink_rtt_us = 1.0
let pcie_rtt_ns = 1250.0
let utilization_threshold = 0.70

let alveolink_overhead_frac total =
  Resource.make
    ~lut:(int_of_float (ceil (0.0204 *. float_of_int total.Resource.lut)))
    ~ff:(int_of_float (ceil (0.0294 *. float_of_int total.Resource.ff)))
    ~bram:(int_of_float (ceil (0.0206 *. float_of_int total.Resource.bram)))
    ~dsp:0 ~uram:0 ()

let bandwidth_hierarchy =
  [
    ("On-chip (SRAM)", "35TBps");
    ("Off-Chip (HBM)", "460GBps");
    ("Inter-FPGA", "100Gbps");
    ("Inter-Node", "10Gbps");
  ]
