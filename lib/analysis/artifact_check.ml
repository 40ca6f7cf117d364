module Taskgraph = Tapa_cs_graph.Taskgraph
module Fifo = Tapa_cs_graph.Fifo
module Task = Tapa_cs_graph.Task
module Pipelining = Tapa_cs_pipeline.Pipelining

type floorplan = {
  pblocks : (string * string list) list;
  stage_notes : (string * string * int) list;
}

type binding = { task : string; port_index : int; channel : int }
type stream = { task : string; dir : [ `Tx | `Rx ]; peer_fpga : int }
type connectivity = { bindings : binding list; streams : stream list }

type report = {
  fpgas : int;
  clock_mhz : float;
  cut_fifo_ids : int list;
  device_clock_mhz : (int * float) list;
  device_tasks : (int * string list) list;
}

(* ------------------------------------------------------------------ *)
(* Small string helpers (no external parsing dependency)               *)
(* ------------------------------------------------------------------ *)

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p
let after p s = String.sub s (String.length p) (String.length s - String.length p)

(* Index of the first [sub] in [s]; -1 when absent. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1) in
  go 0

(* ------------------------------------------------------------------ *)
(* Parsers — exactly the emitter's grammar, unrelated lines ignored    *)
(* ------------------------------------------------------------------ *)

let parse_floorplan_tcl s =
  let pblocks = ref [] and notes = ref [] in
  let cells name = match List.assoc_opt name !pblocks with
    | Some r -> r
    | None ->
      let r = ref [] in
      pblocks := !pblocks @ [ (name, r) ];
      r
  in
  List.iter
    (fun line ->
      let line = String.trim line in
      if has_prefix "create_pblock pblock_" line then
        ignore (cells (after "create_pblock pblock_" line))
      else if has_prefix "add_cells_to_pblock pblock_" line then begin
        try
          Scanf.sscanf line "add_cells_to_pblock pblock_%s@ [get_cells -hier %s@]"
            (fun name task ->
              let r = cells name in
              r := task :: !r)
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()
      end
      else if has_prefix "# fifo " line then begin
        (* "# fifo SRC->DST: N pipeline stage(s) inserted at slot crossings" *)
        let body = after "# fifo " line in
        match find_sub body "->" with
        | -1 -> ()
        | arrow -> (
          let src = String.sub body 0 arrow in
          let rest = String.sub body (arrow + 2) (String.length body - arrow - 2) in
          match String.index_opt rest ':' with
          | None -> ()
          | Some colon -> (
            let dst = String.sub rest 0 colon in
            let tail = String.sub rest (colon + 1) (String.length rest - colon - 1) in
            try Scanf.sscanf tail " %d" (fun n -> notes := (src, dst, n) :: !notes)
            with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()))
      end)
    (String.split_on_char '\n' s);
  {
    pblocks = List.map (fun (n, r) -> (n, List.rev !r)) !pblocks;
    stage_notes = List.rev !notes;
  }

let parse_connectivity_cfg s =
  let bindings = ref [] and streams = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      if has_prefix "sp=" line then begin
        try
          Scanf.sscanf line "sp=%s@.m_axi_%d:HBM[%d]" (fun task port_index channel ->
              bindings := { task; port_index; channel } :: !bindings)
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()
      end
      else if has_prefix "stream_connect=hivenet_rx.out:" line then begin
        try
          Scanf.sscanf line "stream_connect=hivenet_rx.out:%s@.in # from FPGA %d"
            (fun task peer_fpga -> streams := { task; dir = `Rx; peer_fpga } :: !streams)
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()
      end
      else if has_prefix "stream_connect=" line then begin
        try
          Scanf.sscanf line "stream_connect=%s@.out:hivenet_tx.in # to FPGA %d"
            (fun task peer_fpga -> streams := { task; dir = `Tx; peer_fpga } :: !streams)
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()
      end)
    (String.split_on_char '\n' s);
  { bindings = List.rev !bindings; streams = List.rev !streams }

(* The report is read as JSON, so task names survive any bytes the
   emitter's quoting allows (commas, quotes, UTF-8). *)
let parse_design_report s =
  let module Json = Tapa_cs_util.Json in
  let ( let* ) = Result.bind in
  let wants what key = Error (Printf.sprintf "field %S wants %s" key what) in
  let int key = function Json.Int i -> Ok i | _ -> wants "an integer" key in
  let number key = function
    | Json.Int i -> Ok (float_of_int i)
    | Json.Float f -> Ok f
    | _ -> wants "a number" key
  in
  let list key = function Json.List l -> Ok l | _ -> wants "a list" key in
  let string key = function Json.String s -> Ok s | _ -> wants "a string" key in
  let get key read = function
    | Json.Obj fields when List.mem_assoc key fields -> read key (List.assoc key fields)
    | _ -> Error (Printf.sprintf "missing field %S" key)
  in
  let each read l =
    List.fold_right
      (fun v acc ->
        let* acc = acc in
        let* x = read v in
        Ok (x :: acc))
      l (Ok [])
  in
  let device d =
    let* index = get "index" int d in
    let* clock = get "clock_mhz" number d in
    let* names = Result.bind (get "tasks" list d) (each (string "tasks")) in
    Ok ((index, clock), (index, names))
  in
  let* doc = Json.of_string s in
  let* devices = Result.bind (get "devices" list doc) (each device) in
  let* fpgas = get "fpgas" int doc in
  let* clock_mhz = get "clock_mhz" number doc in
  let* cut_fifo_ids = Result.bind (get "cut_fifos" list doc) (each (int "cut_fifos")) in
  Ok
    {
      fpgas;
      clock_mhz;
      cut_fifo_ids;
      device_clock_mhz = List.map fst devices;
      device_tasks = List.map snd devices;
    }

(* ------------------------------------------------------------------ *)
(* Checkers                                                            *)
(* ------------------------------------------------------------------ *)

let diag code loc message =
  Diagnostic.make
    ?hint:(Diagnostic.default_hint code)
    ~code
    ~severity:(Diagnostic.default_severity code)
    ~loc message

let artifact_loc name = Diagnostic.Constraint { name }

let check_floorplan ~fpga ~expected_slots fp =
  let loc = artifact_loc (Printf.sprintf "floorplan_f%d.tcl" fpga) in
  let ds = ref [] in
  let emit m = ds := diag "TCS601" loc m :: !ds in
  let placed_in task =
    List.find_opt (fun (_, cells) -> List.mem task cells) fp.pblocks |> Option.map fst
  in
  List.iter
    (fun (task, slot) ->
      match placed_in task with
      | None -> emit (Printf.sprintf "task %s is missing (expected in pblock_%s)" task slot)
      | Some got when got <> slot ->
        emit (Printf.sprintf "task %s sits in pblock_%s, expected pblock_%s" task got slot)
      | Some _ -> ())
    expected_slots;
  List.iter
    (fun (pb, cells) ->
      List.iter
        (fun cell ->
          if not (List.mem_assoc cell expected_slots) then
            emit
              (Printf.sprintf "pblock_%s places cell %s the floorplanner never assigned" pb cell))
        cells)
    fp.pblocks;
  List.rev !ds

let check_stage_balance ~graph ~fpga ~expected_insertions ~expected_total fp =
  let loc = artifact_loc (Printf.sprintf "floorplan_f%d.tcl" fpga) in
  let ds = ref [] in
  let emit m = ds := diag "TCS604" loc m :: !ds in
  let name tid = (Taskgraph.task graph tid).Task.name in
  let render (fid, stages) =
    let f = Taskgraph.fifo graph fid in
    (name f.Fifo.src, name f.Fifo.dst, stages)
  in
  let expected_notes = List.map render expected_insertions in
  if expected_notes <> fp.stage_notes then
    emit
      (Printf.sprintf
         "crossing-stage comments disagree with the in-memory insertions (%d emitted, %d \
          expected)"
         (List.length fp.stage_notes)
         (List.length expected_notes));
  (* Re-derive the balance from what the artifact says: map each comment
     back to a FIFO (consuming duplicates in graph order) and feed the
     stages as crossings through the balancing pass. *)
  let consumed = Hashtbl.create 8 in
  let resolve (src, dst, stages) =
    let found = ref None in
    Array.iter
      (fun (f : Fifo.t) ->
        if
          !found = None
          && (not (Hashtbl.mem consumed f.Fifo.id))
          && name f.Fifo.src = src
          && name f.Fifo.dst = dst
        then begin
          Hashtbl.add consumed f.Fifo.id ();
          found := Some (f.Fifo.id, stages)
        end)
      (Taskgraph.fifos graph);
    if !found = None then
      emit (Printf.sprintf "stage comment names unknown fifo %s->%s" src dst);
    !found
  in
  let crossings = List.filter_map resolve fp.stage_notes in
  let bal = Pipelining.run ~graph ~crossings in
  Array.iter
    (fun (f : Fifo.t) ->
      let got = Pipelining.stages_of bal f.Fifo.id and want = expected_total f.Fifo.id in
      if got <> want then
        emit
          (Printf.sprintf
             "re-deriving the cut-set balance from the artifact gives %d stage(s) on fifo \
              %s->%s, the in-memory pipeline has %d"
             got (name f.Fifo.src) (name f.Fifo.dst) want))
    (Taskgraph.fifos graph);
  List.rev !ds

let check_connectivity ~fpga ~expected_bindings ~expected_streams conn =
  let file = Printf.sprintf "connectivity_f%d.cfg" fpga in
  let ds = ref [] in
  let bloc (b : binding) =
    Diagnostic.Channel { task = b.task; port_index = b.port_index; channel = b.channel }
  in
  let emit_b code b m = ds := diag code (bloc b) m :: !ds in
  List.iter
    (fun b ->
      if not (List.mem b conn.bindings) then
        emit_b "TCS602" b
          (Printf.sprintf "%s lacks binding sp=%s.m_axi_%d:HBM[%d]" file b.task b.port_index
             b.channel))
    expected_bindings;
  List.iter
    (fun b ->
      if not (List.mem b expected_bindings) then
        emit_b "TCS602" b
          (Printf.sprintf "%s carries binding sp=%s.m_axi_%d:HBM[%d] the compiler never made"
             file b.task b.port_index b.channel))
    conn.bindings;
  let sdesc (st : stream) =
    match st.dir with
    | `Tx -> Printf.sprintf "%s.out -> FPGA %d" st.task st.peer_fpga
    | `Rx -> Printf.sprintf "FPGA %d -> %s.in" st.peer_fpga st.task
  in
  let sloc = artifact_loc file in
  List.iter
    (fun st ->
      if not (List.mem st conn.streams) then
        ds := diag "TCS602" sloc (Printf.sprintf "missing stream_connect for %s" (sdesc st)) :: !ds)
    expected_streams;
  List.iter
    (fun st ->
      if not (List.mem st expected_streams) then
        ds :=
          diag "TCS602" sloc
            (Printf.sprintf "extra stream_connect for %s the cut-set does not contain" (sdesc st))
          :: !ds)
    conn.streams;
  List.rev !ds

let check_report ~expected got =
  let loc = artifact_loc "design_report.json" in
  let ds = ref [] in
  let emit m = ds := diag "TCS603" loc m :: !ds in
  (* Clocks pass through a %.1f rendering; half that quantum is the
     tightest honest tolerance. *)
  let clock_eq a b = Float.abs (a -. b) <= 0.06 in
  if got.fpgas <> expected.fpgas then
    emit (Printf.sprintf "report says %d FPGAs, compile used %d" got.fpgas expected.fpgas);
  if not (clock_eq got.clock_mhz expected.clock_mhz) then
    emit
      (Printf.sprintf "report clock %.1f MHz, compile closed at %.1f MHz" got.clock_mhz
         expected.clock_mhz);
  if got.cut_fifo_ids <> expected.cut_fifo_ids then
    emit
      (Printf.sprintf "report cut-set {%s} differs from the compiler's {%s}"
         (String.concat "," (List.map string_of_int got.cut_fifo_ids))
         (String.concat "," (List.map string_of_int expected.cut_fifo_ids)));
  let by_index l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let gclk = by_index got.device_clock_mhz and eclk = by_index expected.device_clock_mhz in
  if
    List.length gclk <> List.length eclk
    || not (List.for_all2 (fun (i, a) (j, b) -> i = j && clock_eq a b) gclk eclk)
  then emit "per-device clocks disagree with the compile result";
  let gt = by_index got.device_tasks and et = by_index expected.device_tasks in
  if gt <> et then begin
    let render l =
      String.concat "; "
        (List.map (fun (i, names) -> Printf.sprintf "f%d:[%s]" i (String.concat "," names)) l)
    in
    emit
      (Printf.sprintf "per-device task lists disagree: report %s, compile %s" (render gt)
         (render et))
  end;
  List.rev !ds
