type severity = Error | Warning | Info

type location =
  | Design
  | Task of { id : int; name : string }
  | Fifo of { id : int; src : string; dst : string }
  | Channel of { task : string; port_index : int; channel : int }
  | Constraint of { name : string }

type t = {
  code : string;
  severity : severity;
  loc : location;
  message : string;
  hint : string option;
}

(* The single source of truth for codes: severity, meaning, fix hint.
   DESIGN.md §5b mirrors this table. *)
let registry =
  [
    ( "TCS001",
      Warning,
      "task graph is not weakly connected",
      "split independent kernels into separate designs, or connect the components" );
    ( "TCS002",
      Error,
      "dead task: no compute, no FIFOs and no memory ports",
      "remove the task or give it work (streams, memory ports or compute)" );
    ( "TCS003",
      Warning,
      "design has no source: every task waits on an upstream FIFO and none reads memory",
      "add a task with a memory read port or no stream inputs to seed the dataflow" );
    ( "TCS004",
      Warning,
      "design has no sink: no task writes memory or terminates the dataflow",
      "add a task with a memory write port or no stream outputs" );
    ( "TCS005",
      Warning,
      "task is unreachable from every source task",
      "connect the task downstream of a source, or make it a source" );
    ( "TCS101",
      Error,
      "bulk-mode FIFO on a dependency cycle: the consumer needs the full volume before \
       producing, which its own output transitively feeds",
      "use a streaming FIFO on the feedback path, or break the cycle" );
    ( "TCS102",
      Warning,
      "feedback cycle: FIFO depths must absorb the loop's token round-trip (feedback edges \
       start with a single chunk of credit in simulation)",
      "size the feedback FIFO depths to cover the cycle latency" );
    ( "TCS103",
      Warning,
      "reconvergent paths: FIFO depth cannot absorb the latency imbalance of the longest \
       parallel path",
      "deepen the FIFO to at least the path-imbalance (in elements)" );
    ( "TCS201",
      Warning,
      "producer/consumer rate mismatch on a FIFO (sustained elems/cycle differ by >8x)",
      "re-balance lanes/II across the edge or accept the idle stage" );
    ( "TCS202",
      Warning,
      "FIFO width conflicts with an endpoint's element width (neither divides the other)",
      "make the FIFO width a multiple or divisor of the endpoint element width" );
    ( "TCS301",
      Error,
      "post-synthesis resource demand exceeds cluster capacity under the utilization threshold",
      "add FPGAs, raise the threshold, or shrink the design" );
    ( "TCS302",
      Error,
      "memory port binds an HBM channel id the board does not expose",
      "use a channel id below the board's channel count, or drop the explicit binding" );
    ( "TCS303",
      Error,
      "design requests more memory ports than the cluster exposes HBM channels",
      "reduce memory ports per task or add FPGAs" );
    ( "TCS304",
      Error,
      "a single task carries more memory ports than any one board's HBM channels",
      "split the task: all of a task's ports must bind on its own FPGA" );
    ( "TCS305",
      Error,
      "floorplanner found no feasible task-to-FPGA mapping (placement failure)",
      "add FPGAs, raise the threshold, or shrink the design" );
    ( "TCS306",
      Error,
      "every floorplan fallback produced only over-capacity mappings",
      "add FPGAs or rebalance the largest tasks; the count is the number of over-budget devices" );
    ( "TCS307",
      Error,
      "floorplan solver hit its wall-clock deadline without a feasible incumbent",
      "raise the deadline, use the heuristic strategy, or shrink the instance" );
    ( "TCS308",
      Error,
      "malformed or out-of-range fault specification (link or fleet-timeline syntax, a device \
       index outside the cluster, or a loss rate outside [0, 1))",
      "links are A:B with distinct device indices inside the cluster; --fail-fpga takes a device \
       index inside the cluster; loss rates are in [0, 1); timeline lines are '<t> \
       device-down|device-up <i>', '<t> link-down|link-up <A:B>' or '<t> loss <rate>'" );
    ( "TCS401",
      Error,
      "ILP model is trivially infeasible: a constraint excludes every point in the variable \
       bounds",
      "fix the named constraint (usually an under-provisioned capacity)" );
    ( "TCS402",
      Error,
      "ILP objective is trivially unbounded along an unconstrained variable",
      "bound the named variable or constrain it" );
    ( "TCS501",
      Warning,
      "FIFO depth is below the minimal deadlock-free bound for its reconvergent paths",
      "deepen the FIFO to at least the static minimal depth (path imbalance, floor 2)" );
    ( "TCS502",
      Info,
      "FIFO depth is wastefully oversized versus its minimal deadlock-free bound",
      "shrink the FIFO toward the static minimal depth to reclaim BRAM" );
    ( "TCS503",
      Error,
      "simulated latency falls outside the static [lower, upper] latency interval",
      "the analytic model and the simulator disagree: report the design, do not ship the bound" );
    ( "TCS601",
      Error,
      "emitted floorplan Tcl disagrees with the in-memory slot assignment",
      "re-emit the artifacts; stale or hand-edited Tcl must not drive place-and-route" );
    ( "TCS602",
      Error,
      "emitted connectivity config disagrees with the in-memory HBM binding",
      "re-emit the artifacts; the v++ config must match the bound channels exactly" );
    ( "TCS603",
      Error,
      "emitted design report disagrees with the in-memory compile result",
      "re-emit the artifacts; downstream tooling reads the report as ground truth" );
    ( "TCS604",
      Error,
      "cut-set pipeline stages in the emitted Tcl do not re-derive the in-memory latency balance",
      "re-emit the artifacts; unbalanced cut latencies break the throughput argument" );
    ( "TCS701",
      Error,
      "compile-service admission queue is full: the request was rejected before any work was \
       scheduled",
      "retry with backoff, raise the service --max-depth, or accept best-effort shedding under \
       load" );
  ]

(* One lookup shared by every accessor, so severity / meaning / hint can
   never disagree about whether a code exists. *)
let find code = List.find_opt (fun (c, _, _, _) -> c = code) registry

let default_severity code =
  match find code with
  | Some (_, s, _, _) -> s
  | None -> Error

let describe code =
  match find code with
  | Some (_, _, m, _) -> m
  | None -> "?"

let default_hint code =
  match find code with
  | Some (_, _, _, h) when h <> "" -> Some h
  | _ -> None

let make ?hint ~code ~severity ~loc message = { code; severity; loc; message; hint }

let severity_label = function Error -> "error" | Warning -> "warning" | Info -> "info"

let rank = function Error -> 0 | Warning -> 1 | Info -> 2
let compare_severity a b = compare (rank a) (rank b)

let errors ds = List.filter (fun d -> d.severity = Error) ds

let sort ds =
  List.stable_sort (fun a b ->
      match compare_severity a.severity b.severity with
      | 0 -> compare a.code b.code
      | c -> c)
    ds

let pp_loc fmt = function
  | Design -> Format.fprintf fmt "design"
  | Task { id; name } -> Format.fprintf fmt "task %s (#%d)" name id
  | Fifo { id; src; dst } -> Format.fprintf fmt "fifo #%d (%s -> %s)" id src dst
  | Channel { task; port_index; channel } ->
    Format.fprintf fmt "task %s port %d -> channel %d" task port_index channel
  | Constraint { name } -> Format.fprintf fmt "constraint %s" name

let pp fmt d =
  Format.fprintf fmt "%s[%s] %a: %s" (severity_label d.severity) d.code pp_loc d.loc d.message;
  match d.hint with None -> () | Some h -> Format.fprintf fmt " (fix: %s)" h

let pp_list fmt ds =
  List.iter (fun d -> Format.fprintf fmt "%a@." pp d) ds;
  let count s = List.length (List.filter (fun d -> d.severity = s) ds) in
  Format.fprintf fmt "%d error(s), %d warning(s), %d info@." (count Error) (count Warning)
    (count Info)

let json_loc loc =
  let open Tapa_cs_util.Json in
  match loc with
  | Design -> Obj [ ("kind", String "design") ]
  | Task { id; name } -> Obj [ ("kind", String "task"); ("id", Int id); ("name", String name) ]
  | Fifo { id; src; dst } ->
    Obj [ ("kind", String "fifo"); ("id", Int id); ("src", String src); ("dst", String dst) ]
  | Channel { task; port_index; channel } ->
    Obj
      [
        ("kind", String "channel");
        ("task", String task);
        ("port", Int port_index);
        ("channel", Int channel);
      ]
  | Constraint { name } -> Obj [ ("kind", String "constraint"); ("name", String name) ]

let to_json d =
  let open Tapa_cs_util.Json in
  to_string
    (Obj
       [
         ("code", String d.code);
         ("severity", String (severity_label d.severity));
         ("loc", json_loc d.loc);
         ("message", String d.message);
         ("hint", match d.hint with None -> Null | Some h -> String h);
       ])

let render ?(json = false) ds =
  if json then String.concat "\n" (List.map to_json ds)
  else Format.asprintf "%a" pp_list ds
