open Tapa_cs_device

type mem_dir = Read | Write

type mem_port = { dir : mem_dir; width_bits : int; bytes : float; channel : int option }

type compute = {
  ii : float;
  elems : float;
  ops_per_elem : float;
  elem_bits : int;
  buffer_bytes : int;
  lanes : int;
}

type t = {
  id : int;
  name : string;
  kind : string;
  compute : compute;
  mem_ports : mem_port list;
  resources : Resource.t option;
}

let default_compute = { ii = 1.0; elems = 0.0; ops_per_elem = 0.0; elem_bits = 32; buffer_bytes = 0; lanes = 1 }

let make_compute ?(ii = 1.0) ?(elems = 0.0) ?(ops_per_elem = 0.0) ?(elem_bits = 32)
    ?(buffer_bytes = 0) ?(lanes = 1) () =
  if ii <= 0.0 then invalid_arg "Task.make_compute: ii must be positive";
  if lanes <= 0 then invalid_arg "Task.make_compute: lanes must be positive";
  { ii; elems; ops_per_elem; elem_bits; buffer_bytes; lanes }

let mem_port ?channel ~dir ~width_bits ~bytes () =
  if width_bits <= 0 then invalid_arg "Task.mem_port: width must be positive";
  if bytes < 0.0 then invalid_arg "Task.mem_port: negative traffic";
  { dir; width_bits; bytes; channel }


let pp fmt t =
  Format.fprintf fmt "task %d %s (%s): %.0f elems, ii %.2f, %d lanes, %d mem ports" t.id t.name
    t.kind t.compute.elems t.compute.ii t.compute.lanes (List.length t.mem_ports)
