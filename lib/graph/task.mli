(** A compute task (vertex of the dataflow graph).

    In TAPA each C++ function compiles to one RTL module driven by a
    finite-state machine; here a task carries the abstract compute model
    that the HLS estimator turns into a resource profile and the simulator
    turns into timed behaviour. *)

open Tapa_cs_device

type mem_dir = Read | Write

type mem_port = {
  dir : mem_dir;
  width_bits : int;  (** AXI port width into HBM *)
  bytes : float;  (** total traffic of the run *)
  channel : int option;  (** HBM channel binding; [None] until bound *)
}

type compute = {
  ii : float;  (** initiation interval: cycles per element at steady state *)
  elems : float;  (** elements processed over the whole run *)
  ops_per_elem : float;  (** arithmetic operations per element *)
  elem_bits : int;
  buffer_bytes : int;  (** on-chip scratch (BRAM/URAM) *)
  lanes : int;  (** parallel vector lanes *)
}

type t = {
  id : int;
  name : string;
  kind : string;  (** class label; identical kinds share one synthesis run *)
  compute : compute;
  mem_ports : mem_port list;
  resources : Resource.t option;  (** explicit profile overriding the estimator *)
}

val default_compute : compute
(** [ii = 1], no elements, 32-bit elements, one lane. *)

val make_compute :
  ?ii:float ->
  ?elems:float ->
  ?ops_per_elem:float ->
  ?elem_bits:int ->
  ?buffer_bytes:int ->
  ?lanes:int ->
  unit ->
  compute

val mem_port : ?channel:int -> dir:mem_dir -> width_bits:int -> bytes:float -> unit -> mem_port

val pp : Format.formatter -> t -> unit
