(** Level-2 floorplanning (§4.5): place the tasks assigned to one FPGA
    into its slot grid by recursive two-way partitioning, minimizing the
    Manhattan-distance cost of Eq. 4 with terminal propagation toward
    already-placed neighbors, HBM columns and QSFP I/O slots. *)

open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls

type t = {
  board : Board.t;
  slot_of : int option array;  (** task id -> slot index; [None] when on another FPGA *)
  slot_usage : Resource.t array;
  slot_util : float array;
  crossings : (int * int) list;  (** (fifo id, Manhattan slot distance > 0) *)
  cost : float;  (** Eq. 4 objective of the final placement *)
  levels : Partition.stats list;  (** one entry per bisection solved *)
}

val run :
  ?strategy:Partition.strategy ->
  ?threshold:float ->
  ?seed:int ->
  board:Board.t ->
  synthesis:Synthesis.report ->
  graph:Taskgraph.t ->
  tasks:int list ->
  ?io_pull:(int -> float) ->
  unit ->
  (t, string) Stdlib.result
(** [tasks] are the ids placed on this board.  [io_pull task] is the
    inter-FPGA traffic weight of a task (bit width of its cut FIFOs),
    pulling it toward the QSFP slots; tasks with memory ports are always
    pulled toward the HBM row with their port width. *)
