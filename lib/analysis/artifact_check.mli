(** Round-trip verification of emitted artifacts.

    Re-parses the three artifacts the emitter produces — the Vivado
    floorplan Tcl, the v++ connectivity config and the design report
    JSON — and re-verifies them against expectations derived from the
    in-memory compile result: slot assignment (TCS601), HBM channel
    binding (TCS602), report contents (TCS603) and cut-set latency
    balance (TCS604, by feeding the parsed insertion stages back through
    the balancing pass and comparing the per-FIFO totals).

    This module is deliberately independent of the compiler: callers
    (see [Emit.verify_roundtrip]) pass the expected facts explicitly, so
    tests can tamper with either side.  The Tcl and config parsers
    accept exactly the emitter's grammar and ignore unrelated lines; the
    report is read as JSON. *)

open Tapa_cs_graph

type floorplan = {
  pblocks : (string * string list) list;
      (** slot pblock name -> cells added to it, in file order *)
  stage_notes : (string * string * int) list;
      (** (src task, dst task, stages) from the crossing-insertion comments *)
}

val parse_floorplan_tcl : string -> floorplan

type binding = { task : string; port_index : int; channel : int }
type stream = { task : string; dir : [ `Tx | `Rx ]; peer_fpga : int }
type connectivity = { bindings : binding list; streams : stream list }

val parse_connectivity_cfg : string -> connectivity

type report = {
  fpgas : int;
  clock_mhz : float;
  cut_fifo_ids : int list;
  device_clock_mhz : (int * float) list;  (** (device index, achieved clock) *)
  device_tasks : (int * string list) list;  (** (device index, task names) *)
}

val parse_design_report : string -> (report, string) result
(** Decode the report with {!Tapa_cs_util.Json.of_string} and read the
    fields above from it (other fields are ignored); [Error] is the
    decoder's message or names the first missing or mistyped field. *)

val check_floorplan :
  fpga:int -> expected_slots:(string * string) list -> floorplan -> Diagnostic.t list
(** TCS601 when a task is missing from its expected pblock, appears in a
    wrong one, or the Tcl places a cell the floorplanner never assigned.
    [expected_slots] lists (task name, slot pblock name) for every placed
    task of this FPGA. *)

val check_stage_balance :
  graph:Taskgraph.t ->
  fpga:int ->
  expected_insertions:(int * int) list ->
  expected_total:(int -> int) ->
  floorplan ->
  Diagnostic.t list
(** TCS604 when the parsed crossing-stage comments differ from
    [expected_insertions] ((fifo id, stages) of the in-memory insertion
    list), or when re-running the latency-balancing pass with the parsed
    stages as crossings yields per-FIFO totals different from
    [expected_total] — i.e. the artifact no longer certifies the
    in-memory cut-set balance. *)

val check_connectivity :
  fpga:int ->
  expected_bindings:binding list ->
  expected_streams:stream list ->
  connectivity ->
  Diagnostic.t list
(** TCS602 for any missing, extra or re-channeled [sp=] binding, or any
    missing/extra inter-FPGA [stream_connect] line. *)

val check_report : expected:report -> report -> Diagnostic.t list
(** TCS603 for each field of the parsed report that disagrees with the
    expectation built from the in-memory result. *)
