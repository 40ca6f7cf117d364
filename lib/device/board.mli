(** FPGA board models.

    A board is presented to the floorplanner exactly as the paper presents
    the Alveo U55C (§4.5): a grid of slots delimited by die (SLR)
    boundaries and hard-IP columns, with HBM/DDR channels pinned to
    specific slots and QSFP network ports pinned to specific slots. *)

type slot = {
  row : int;
  col : int;
  die : int;  (** SLR index; crossing dies costs extra delay *)
  capacity : Resource.t;
  hbm_channels : int list;  (** memory channels reachable from this slot *)
  qsfp_ports : int list;  (** network ports attached to this slot *)
}

type t = {
  name : string;
  rows : int;
  cols : int;
  slots : slot array;  (** row-major, length [rows * cols] *)
  total : Resource.t;
  num_hbm_channels : int;
  hbm_bandwidth_gbps : float;  (** aggregate, e.g. 460 GB/s * 8 *)
  hbm_capacity_bytes : float;
  onchip_bandwidth_gbps : float;
  max_freq_mhz : float;
  num_qsfp : int;
}

val slot_index : t -> row:int -> col:int -> int
val num_slots : t -> int

val manhattan : t -> int -> int -> int
(** Slot-to-slot Manhattan distance (Eq. 4). *)

val die_crossings : t -> int -> int -> int
(** Number of die (SLR) boundaries crossed between two slots. *)

val hbm_slots : t -> int list
(** Indices of slots with HBM access (bottom row on the U55C). *)

val qsfp_slots : t -> int list

val u55c : unit -> t
(** Alveo U55C: 2x3 slot grid, 3 SLRs, 32 HBM channels in the bottom row,
    2 QSFP28 ports, resources from paper Table 2. *)

val u250 : unit -> t
(** Alveo U250: 2x4 slot grid, 4 SLRs, 4 DDR channels (modeled as memory
    channels spread over rows), 2 QSFP28 ports. *)

val stratix10 : unit -> t
(** Intel Stratix 10-like device: 2x2 slot grid, single die fabric with
    an EMIB-delimited grid, 4 DDR channels. *)

val pp : Format.formatter -> t -> unit
