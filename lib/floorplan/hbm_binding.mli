(** Automatic HBM channel binding exploration (§4.5).

    All HBM channels surface in the bottom die of the U55C; a bad binding
    concentrates routing there and can fail the design.  This pass assigns
    each task memory port to a channel, balancing per-channel load and
    keeping ports close to their task's column. *)

open Tapa_cs_device
open Tapa_cs_graph

type assignment = {
  task_id : int;
  port_index : int;
  channel : int;
  bytes : float;
  distance : int;  (** Manhattan distance from the task slot to the channel slot *)
}

type t = {
  assignments : assignment list;
  channel_load_bytes : float array;  (** per HBM channel *)
  max_load_bytes : float;
  balance : float;  (** max/mean load; 1.0 is perfectly balanced *)
  wire_cost : float;  (** Σ bytes-weighted distance *)
}

val run :
  ?explore:bool ->
  board:Board.t ->
  graph:Taskgraph.t ->
  slot_of:int option array ->
  unit ->
  t
(** [explore = false] disables the exploration (first-fit binding in port
    order) — the knob behind the [ablate_hbm] experiment. *)

val effective_port_bandwidth_gbps : Board.t -> t -> task_id:int -> port_index:int -> float
(** Per-port share of its channel's bandwidth after binding: ports on one
    channel split it in proportion to their traffic.  0 for an unbound
    port. *)

val port_bandwidth_gbps :
  Board.t -> t -> graph:Taskgraph.t -> freq_mhz:float -> task_id:int -> port_index:int -> float
(** The bandwidth a bound port delivers at clock [freq_mhz]:
    {!effective_port_bandwidth_gbps}, capped by the port's wire rate
    (width x clock — narrow ports cannot saturate a pseudo-channel, §3).
    0 for a port the task does not have.  Every flow's simulator
    configuration takes its port bandwidths from here. *)
