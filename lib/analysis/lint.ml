open Tapa_cs_util
open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_hls
open Tapa_cs_floorplan
open Tapa_cs_pipeline
module Ilp = Tapa_cs_ilp

let diag ?hint code loc message =
  let hint = match hint with Some _ as h -> h | None -> Diagnostic.default_hint code in
  Diagnostic.make ?hint ~code ~severity:(Diagnostic.default_severity code) ~loc message

let task_loc (t : Task.t) = Diagnostic.Task { id = t.id; name = t.name }

let fifo_loc g (f : Fifo.t) =
  Diagnostic.Fifo
    { id = f.id; src = (Taskgraph.task g f.src).name; dst = (Taskgraph.task g f.dst).name }

let names_of g ids =
  let names = List.map (fun i -> (Taskgraph.task g i).Task.name) ids in
  match names with
  | a :: b :: c :: d :: e :: f :: _ :: _ ->
    String.concat ", " [ a; b; c; d; e; f ] ^ Printf.sprintf ", ... (%d tasks)" (List.length names)
  | _ -> String.concat ", " names

let is_source g (t : Task.t) =
  Taskgraph.in_fifos g t.id = []
  || List.exists (fun (p : Task.mem_port) -> p.dir = Task.Read) t.mem_ports

let is_sink g (t : Task.t) =
  Taskgraph.out_fifos g t.id = []
  || List.exists (fun (p : Task.mem_port) -> p.dir = Task.Write) t.mem_ports

(* ------------------------------------------------------------------ *)
(* TCS0xx: graph shape                                                 *)
(* ------------------------------------------------------------------ *)

let graph_shape g =
  let n = Taskgraph.num_tasks g in
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  (* TCS001: weak connectivity. *)
  let uf = Union_find.create n in
  Array.iter (fun (f : Fifo.t) -> Union_find.union uf f.src f.dst) (Taskgraph.fifos g);
  let ncomp = Union_find.count uf in
  if ncomp > 1 then
    emit
      (diag "TCS001" Diagnostic.Design
         (Printf.sprintf "task graph splits into %d disconnected components" ncomp));
  (* TCS002: dead tasks.  A single-task design is its own kernel; only
     flag dead logic when there is a dataflow to be dead inside. *)
  if n > 1 then
    Array.iter
      (fun (t : Task.t) ->
        if
          Taskgraph.in_fifos g t.id = []
          && Taskgraph.out_fifos g t.id = []
          && t.mem_ports = []
          && t.compute.Task.elems = 0.0
        then
          emit
            (diag "TCS002" (task_loc t)
               (Printf.sprintf "task %s has no compute, no FIFOs and no memory ports" t.name)))
      (Taskgraph.tasks g);
  let sources =
    Array.to_list (Taskgraph.tasks g) |> List.filter (is_source g) |> List.map (fun t -> t.Task.id)
  in
  let sinks = Array.to_list (Taskgraph.tasks g) |> List.filter (is_sink g) in
  if sources = [] then
    emit
      (diag "TCS003" Diagnostic.Design
         "no source task: every task waits on an upstream FIFO and none reads external memory");
  if sinks = [] then
    emit
      (diag "TCS004" Diagnostic.Design
         "no sink task: no task writes external memory or terminates the dataflow");
  (* TCS005: forward reachability from the sources. *)
  if sources <> [] then begin
    let visited = Array.make n false in
    let rec bfs = function
      | [] -> ()
      | v :: rest ->
        let next =
          List.fold_left
            (fun acc (f : Fifo.t) ->
              if visited.(f.dst) then acc
              else begin
                visited.(f.dst) <- true;
                f.dst :: acc
              end)
            rest (Taskgraph.out_fifos g v)
        in
        bfs next
    in
    List.iter (fun s -> visited.(s) <- true) sources;
    bfs sources;
    Array.iter
      (fun (t : Task.t) ->
        if not visited.(t.id) then
          emit
            (diag "TCS005" (task_loc t)
               (Printf.sprintf "task %s is unreachable from every source task" t.name)))
      (Taskgraph.tasks g)
  end;
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* TCS1xx: deadlock                                                    *)
(* ------------------------------------------------------------------ *)

let deadlock g =
  let n = Taskgraph.num_tasks g in
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let comps = Taskgraph.sccs g in
  let comp_of = Array.make n (-1) in
  List.iteri (fun ci members -> List.iter (fun v -> comp_of.(v) <- ci) members) comps;
  List.iteri
    (fun ci members ->
      if List.length members > 1 then begin
        let bulk =
          Array.to_list (Taskgraph.fifos g)
          |> List.filter (fun (f : Fifo.t) ->
                 comp_of.(f.src) = ci && comp_of.(f.dst) = ci && f.mode = Fifo.Bulk)
        in
        if bulk <> [] then
          List.iter
            (fun (f : Fifo.t) ->
              emit
                (diag "TCS101" (fifo_loc g f)
                   (Printf.sprintf
                      "bulk-mode FIFO on the feedback cycle through %s: its consumer needs the \
                       full transfer before producing anything the cycle depends on"
                      (names_of g members))))
            bulk
        else
          emit
            (diag "TCS102" Diagnostic.Design
               (Printf.sprintf
                  "feedback cycle through %s: these FIFOs start with only one chunk of credit, \
                   so their depths must absorb the loop's token round-trip"
                  (names_of g members)))
      end)
    comps;
  (* TCS103: reconvergent-path imbalance, via the same cut-set balancing
     fixed point interconnect pipelining uses (§4.6).  Charging one
     latency stage to every FIFO makes [balancing] report, per edge, how
     many stages the longest parallel path is ahead — exactly the token
     imbalance the edge's FIFO must buffer to avoid throttling the join. *)
  let crossings =
    Array.to_list (Taskgraph.fifos g) |> List.map (fun (f : Fifo.t) -> (f.id, 1))
  in
  let bal = Pipelining.run ~graph:g ~crossings in
  List.iter
    (fun (ins : Pipelining.insertion) ->
      let f = Taskgraph.fifo g ins.fifo_id in
      if f.Fifo.depth < ins.stages then
        emit
          (diag "TCS103" (fifo_loc g f)
             (Printf.sprintf
                "reconvergent paths: the longest parallel path runs %d stages ahead but the \
                 FIFO holds only %d elements"
                ins.stages f.Fifo.depth)))
    bal.Pipelining.balancing;
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* TCS2xx: rates and widths                                            *)
(* ------------------------------------------------------------------ *)

let rate_mismatch_ratio = 8.0

let rates g =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  Array.iter
    (fun (f : Fifo.t) ->
      if f.elems > 0.0 then begin
        let src = Taskgraph.task g f.src and dst = Taskgraph.task g f.dst in
        (* Sustained edge rates: the producer emits f.elems over its steady
           cycles (elems x II / lanes), the consumer drains likewise. *)
        let rate (t : Task.t) =
          let steady = Estimator.steady_cycles t in
          if steady > 0.0 then Some (f.elems /. steady) else None
        in
        (match (rate src, rate dst) with
        | Some rp, Some rc when Float.min rp rc > 0.0 ->
          let ratio = Float.max rp rc /. Float.min rp rc in
          if ratio > rate_mismatch_ratio then
            emit
              (diag "TCS201" (fifo_loc g f)
                 (Printf.sprintf
                    "rate mismatch: %s sustains %.3g elems/cycle but %s %.3g (%.0fx apart)"
                    src.name rp dst.name rc ratio))
        | _ -> ());
        (* Width conflicts: the FIFO width must pack or unpack endpoint
           elements cleanly (serialization by an integer factor is fine). *)
        let conflicts =
          List.filter
            (fun (t : Task.t) ->
              let eb = t.compute.Task.elem_bits in
              eb > 0 && f.width_bits mod eb <> 0 && eb mod f.width_bits <> 0)
            [ src; dst ]
        in
        if conflicts <> [] then
          emit
            (diag "TCS202" (fifo_loc g f)
               (Printf.sprintf "FIFO width %d bits conflicts with element width of %s" f.width_bits
                  (String.concat " and "
                     (List.map
                        (fun (t : Task.t) ->
                          Printf.sprintf "%s (%d bits)" t.name t.compute.Task.elem_bits)
                        conflicts))))
      end)
    (Taskgraph.fifos g);
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* TCS3xx: capacity pre-check                                          *)
(* ------------------------------------------------------------------ *)

let resource_components (r : Resource.t) =
  [ ("LUT", r.lut); ("FF", r.ff); ("BRAM", r.bram); ("DSP", r.dsp); ("URAM", r.uram) ]

let capacity ?(threshold = Constants.utilization_threshold) ~cluster ~synthesis g =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let k = Cluster.size cluster in
  let caps = Inter_fpga.capacities ~threshold cluster in
  let total_cap = Array.fold_left Resource.add Resource.zero caps in
  let demand = synthesis.Synthesis.total_resources in
  let board0 = Cluster.board cluster 0 in
  List.iter2
    (fun (name, need) (_, avail) ->
      if need > avail then
        emit
          (diag "TCS301" Diagnostic.Design
             (Printf.sprintf
                "%s demand %d exceeds the %d available across %d x %s at the %.0f%% threshold"
                name need avail k board0.Board.name (100.0 *. threshold))))
    (resource_components demand) (resource_components total_cap);
  (* HBM ports vs. channels. *)
  let channels_per_board =
    Array.init k (fun i -> (Cluster.board cluster i).Board.num_hbm_channels)
  in
  let max_board_channels = Array.fold_left Stdlib.max 0 channels_per_board in
  let total_channels = Array.fold_left ( + ) 0 channels_per_board in
  let total_ports = ref 0 in
  Array.iter
    (fun (t : Task.t) ->
      let nports = List.length t.mem_ports in
      total_ports := !total_ports + nports;
      List.iteri
        (fun pi (p : Task.mem_port) ->
          match p.channel with
          | Some ch when ch < 0 || ch >= board0.Board.num_hbm_channels ->
            emit
              (diag "TCS302"
                 (Diagnostic.Channel { task = t.name; port_index = pi; channel = ch })
                 (Printf.sprintf "port binds channel %d but %s exposes only channels 0..%d" ch
                    board0.Board.name
                    (board0.Board.num_hbm_channels - 1)))
          | _ -> ())
        t.mem_ports;
      if nports > max_board_channels then
        emit
          (diag "TCS304" (task_loc t)
             (Printf.sprintf
                "task %s carries %d memory ports but no board exposes more than %d HBM channels"
                t.name nports max_board_channels)))
    (Taskgraph.tasks g);
  if !total_ports > total_channels then
    emit
      (diag "TCS303" Diagnostic.Design
         (Printf.sprintf "design requests %d memory ports but the cluster exposes %d HBM channels"
            !total_ports total_channels));
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* TCS4xx: ILP model validation                                        *)
(* ------------------------------------------------------------------ *)

let ilp_model m =
  List.map
    (fun issue ->
      let loc = Diagnostic.Constraint { name = Ilp.Validate.issue_name issue } in
      let msg = Format.asprintf "%a" Ilp.Validate.pp_issue issue in
      match issue with
      | Ilp.Validate.Infeasible_constraint _ -> diag "TCS401" loc msg
      | Ilp.Validate.Unbounded_direction _ -> diag "TCS402" loc msg)
    (Ilp.Validate.check m)

(* ------------------------------------------------------------------ *)
(* TCS305..307: floorplanner failures as diagnostics                   *)
(* ------------------------------------------------------------------ *)

let floorplan_error (e : Inter_fpga.error) =
  diag (Inter_fpga.error_code e) Diagnostic.Design (Inter_fpga.error_message e)

(* ------------------------------------------------------------------ *)
(* TCS308: malformed or out-of-range fault specifications from the CLI *)
(* ------------------------------------------------------------------ *)

let fault_spec_error ~flag ~spec ~reason =
  diag "TCS308" Diagnostic.Design
    (Printf.sprintf "%s %S: %s" flag spec reason)

(* ------------------------------------------------------------------ *)
(* TCS701: compile-service admission rejection                         *)
(* ------------------------------------------------------------------ *)

let admission_reject ~klass ~depth ~limit =
  diag "TCS701" Diagnostic.Design
    (Printf.sprintf
       "%s request rejected: admission queue holds %d pending computation(s), limit %d" klass
       depth limit)

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let structural g = graph_shape g @ deadlock g @ rates g

let run_all ?threshold ~cluster g =
  let synthesis = Synthesis.run ~board:(Cluster.board cluster 0) g in
  Diagnostic.sort (structural g @ capacity ?threshold ~cluster ~synthesis g)

let precheck ?threshold ~cluster ~synthesis g =
  Diagnostic.errors
    (Diagnostic.sort (structural g @ capacity ?threshold ~cluster ~synthesis g))
