(* Command-line driver for the TAPA-CS reproduction.

     tapa_cs_cli compile  --app knn --fpgas 2
     tapa_cs_cli simulate --app stencil --iters 256 --fpgas 4 --flow tapa-cs
     tapa_cs_cli dot      --app pagerank > pagerank.dot
     tapa_cs_cli info
*)

open Cmdliner
open Tapa_cs
open Tapa_cs_device
open Tapa_cs_graph
open Tapa_cs_apps

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

(* Integer flags parse through one converter: a value below its floor
   is a usage error (exit 124) instead of an exception from a generator
   or cluster constructor, or a value silently read as a default. *)
let int_at_least floor ~expected =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= floor -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "expected %s, got %d" expected n))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)

(* Counts: FPGAs, boards, iterations, columns, dataset sizes. *)
let positive_int = int_at_least 1 ~expected:"a positive integer"

(* Where 0 means "default" or "none": --jobs, --cluster-fpgas, retries. *)
let non_negative_int = int_at_least 0 ~expected:"a non-negative integer"

let app_arg =
  let doc = "Benchmark application: " ^ String.concat ", " Catalog.apps ^ "." in
  Arg.(required
       & opt (some (enum (List.map (fun a -> (a, a)) Catalog.apps))) None
       & info [ "app" ] ~doc)

let fpgas_arg =
  let doc = "Number of FPGAs the design is generated for." in
  Arg.(value & opt positive_int 1 & info [ "fpgas"; "k" ] ~doc)

let cluster_fpgas_arg =
  let doc =
    "Physical cluster size; defaults to --fpgas.  A value larger than --fpgas leaves spare \
     devices — the headroom the --fail-fpga experiments degrade into."
  in
  Arg.(value & opt non_negative_int 0 & info [ "cluster-fpgas" ] ~doc)

let iters_arg =
  let doc = "Stencil iterations (64-512)." in
  Arg.(value & opt positive_int 64 & info [ "iters" ] ~doc)

let dataset_arg =
  let names = List.map (fun (ds : Dataset.spec) -> ds.name) Dataset.all in
  let doc = "PageRank dataset (Table 5): " ^ String.concat ", " names ^ "." in
  Arg.(value
       & opt (enum (List.map (fun n -> (n, n)) names)) "soc-Slashdot0811"
       & info [ "dataset" ] ~doc)

let n_arg =
  let doc = "KNN dataset size N." in
  Arg.(value & opt positive_int 4_000_000 & info [ "n" ] ~doc)

let d_arg =
  let doc = "KNN feature dimension D." in
  Arg.(value & opt positive_int 2 & info [ "d" ] ~doc)

let cols_arg =
  let doc = "CNN grid columns (grid is 13 x cols)." in
  Arg.(value & opt positive_int 8 & info [ "cols" ] ~doc)

(* The design flags of every subcommand that builds an app, as the
   catalog spec of [app].  Sweep sizes each point itself and passes a
   constant [fpgas]; lint names its designs itself. *)
let design ?(fpgas = fpgas_arg) app_term =
  let spec app fpgas iters dataset n d cols = { Catalog.app; fpgas; iters; dataset; n; d; cols } in
  Term.(const spec $ app_term $ fpgas $ iters_arg $ dataset_arg $ n_arg $ d_arg $ cols_arg)

let flow_arg =
  let doc = "Compilation flow: vitis, tapa, or tapa-cs." in
  Arg.(value & opt (enum [ ("vitis", `Vitis); ("tapa", `Tapa); ("tapa-cs", `Tapa_cs) ]) `Tapa_cs
       & info [ "flow" ] ~doc)

let board_names = [ ("u55c", "u55c"); ("u250", "u250"); ("stratix10", "stratix10") ]

let board_arg =
  let doc = "FPGA board model: u55c, u250, stratix10." in
  Arg.(value & opt (enum board_names) "u55c" & info [ "board" ] ~doc)

(* One board name of a comma list such as --mix, trimmed. *)
let board_name =
  let boards = Arg.enum board_names in
  Arg.conv ~docv:"BOARD"
    ((fun s -> Arg.conv_parser boards (String.trim s)), Arg.conv_printer boards)

let board_of_name = function
  | "u250" -> Board.u250
  | "stratix10" -> Board.stratix10
  | _ -> Board.u55c

let topology_arg =
  let doc = "Cluster topology: ring, chain, bus, star, hypercube." in
  Arg.(value
       & opt (enum [ ("ring", Topology.Ring); ("chain", Topology.Daisy_chain);
                     ("bus", Topology.Bus); ("star", Topology.Star); ("hypercube", Topology.Hypercube) ])
           Topology.Ring
       & info [ "topology" ] ~doc)

(* Float flags parse through one converter: a value outside its range,
   NaN or an infinity is a usage error (exit 124) rather than a late
   routing failure, a NaN report or a farm event loop that never
   drains. *)
let float_in ~docv ~expected ok =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when Float.is_finite x && ok x -> Ok x
    | Ok x -> Error (`Msg (Printf.sprintf "expected %s, got %g" expected x))
    | Error _ as e -> e
  in
  Arg.conv ~docv (parse, Arg.conv_printer Arg.float)

(* A utilization threshold is a fraction in (0, 1]. *)
let fraction = float_in ~docv:"T" ~expected:"a fraction in (0, 1]" (fun t -> t > 0.0 && t <= 1.0)

(* Durations, sizes and rates. *)
let positive_float = float_in ~docv:"X" ~expected:"a finite number > 0" (fun x -> x > 0.0)
let non_negative_float = float_in ~docv:"X" ~expected:"a finite number >= 0" (fun x -> x >= 0.0)

let threshold_arg =
  let doc = "Per-resource utilization threshold T of Eq. 1, in (0, 1]." in
  Arg.(value & opt fraction Constants.utilization_threshold & info [ "threshold" ] ~doc)

let jobs_arg doc = Arg.(value & opt non_negative_int 0 & info [ "jobs"; "j" ] ~doc)

let compile_jobs_arg =
  jobs_arg
    "Worker domains for the parallel compile stages (synthesis estimation and the per-FPGA \
     floorplan/HBM/pipelining/frequency tail). 0 selects the default: the TAPA_CS_JOBS \
     environment variable, else the recommended domain count. The compile result is identical \
     for every value; only wall-clock changes."

let effective_jobs jobs = if jobs <= 0 then Tapa_cs_util.Pool.default_jobs () else jobs

(* Run [f] with a pool for [jobs] domains in all (the caller is one of
   them), shut down afterwards. *)
let with_pool jobs f =
  let pool = if jobs > 1 then Some (Tapa_cs_util.Pool.create ~domains:(jobs - 1) ()) else None in
  Fun.protect ~finally:(fun () -> Option.iter Tapa_cs_util.Pool.shutdown pool) (fun () -> f pool)

(* The OS reason of a [Sys_error] about [path], which reads
   "<path>: <reason>". *)
let os_reason ~path msg =
  let prefix = path ^ ": " in
  let n = String.length prefix in
  if String.starts_with ~prefix msg then String.sub msg n (String.length msg - n) else msg

(* The --stats-json FILE of farm and serve ('-' = stdout), opened before
   any work so an unwritable path fails fast: the writer of the final
   JSON line, or the one line naming the flag, the path and the OS
   reason. *)
let stats_json_writer ~what = function
  | None -> Ok ignore
  | Some "-" -> Ok print_endline
  | Some path -> (
    match open_out path with
    | exception Sys_error msg ->
      Error (Printf.sprintf "--stats-json %S: %s" path (os_reason ~path msg))
    | oc ->
      Ok
        (fun json ->
          Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
          output_string oc json;
          output_char oc '\n';
          Format.printf "wrote %s to %s@." what path))

(* Fault-injection flags (the §5 Fig-8-style experiments rerun under faults). *)

let fail_fpga_arg =
  let doc =
    "Inject a dead FPGA by cluster index (repeatable).  The floorplanner re-solves the \
     placement on the surviving sub-topology and reports a Degraded compile.  An index \
     outside the cluster is reported as a TCS308 diagnostic."
  in
  Arg.(value & opt_all int [] & info [ "fail-fpga" ] ~doc)

let loss_rate_arg =
  let doc =
    "Per-packet loss probability on every inter-FPGA link, in [0, 1) (else TCS308).  Links are \
     derated by the closed-form RoCE-v2 go-back-N slowdown."
  in
  Arg.(value & opt float 0.0 & info [ "loss-rate" ] ~doc)

let fail_link_arg =
  let doc =
    "Inject a downed inter-FPGA link as A:B (two device indices; repeatable).  The edge is \
     removed from the topology before floorplanning — the hop metric reroutes around it.  \
     Malformed specs and indices outside the cluster are reported as a TCS308 diagnostic."
  in
  Arg.(value & opt_all string [] & info [ "fail-link" ] ~doc ~docv:"A:B")

let seed_arg =
  let doc = "Root seed for the floorplanner and every injected fault (bit-reproducible)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

(* The fault flags, checked against a [k]-device cluster before any
   work: the first malformed --fail-link spec, device index outside the
   cluster or loss rate outside [0, 1) renders as its TCS308 registry
   diagnostic, so no bad fault input reaches the compiler or the
   simulator. *)
let make_fault_plan ~k ~seed ~loss_rate ~fail_fpgas ~fail_links =
  let reject flag spec reason =
    Error
      (Tapa_cs_analysis.Diagnostic.render
         [ Tapa_cs_analysis.Lint.fault_spec_error ~flag ~spec ~reason ])
  in
  let outside d = d < 0 || d >= k in
  let out_of_range = Printf.sprintf "device index outside the %d-device cluster (0..%d)" k (k - 1) in
  let rec links acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
      match Tapa_cs_network.Fault.parse_link_spec s with
      | Error reason -> reject "--fail-link" s reason
      | Ok (a, b) when outside a || outside b -> reject "--fail-link" s out_of_range
      | Ok l -> links (l :: acc) rest)
  in
  match (links [] fail_links, List.find_opt outside fail_fpgas) with
  | Error e, _ -> Error e
  | Ok _, Some d -> reject "--fail-fpga" (string_of_int d) out_of_range
  | Ok _, None when not (loss_rate >= 0.0 && loss_rate < 1.0) ->
    reject "--loss-rate" (Printf.sprintf "%g" loss_rate) "not a loss probability in [0, 1)"
  | Ok failed_links, None ->
    let plan =
      Tapa_cs_network.Fault.make ~seed ~loss_rate ~failed_devices:fail_fpgas ~failed_links ()
    in
    Ok (if Tapa_cs_network.Fault.is_trivial plan then None else Some plan)

(* What compile, simulate and analyze act on: the app, the board and
   cluster it runs on, the fault plan and the compile options. *)
type target = {
  app : App.t;
  board : unit -> Board.t;
  cluster : Cluster.t;
  options : Compiler.options;  (** the fault plan included *)
}

(* The target flags as one term, checked before any work: the app
   through the catalog, the fault flags against the cluster.
   [verify_static] is the flag, or a constant where a subcommand has
   none. *)
let target verify_static =
  let check spec cluster_fpgas topology board threshold jobs seed loss_rate fail_fpgas fail_links
      verify_static =
    let ( let* ) = Result.bind in
    let* app = Catalog.build spec in
    let k = if cluster_fpgas = 0 then spec.Catalog.fpgas else cluster_fpgas in
    let* fault_plan = make_fault_plan ~k ~seed ~loss_rate ~fail_fpgas ~fail_links in
    let board = board_of_name board in
    let options =
      { Compiler.default_options with threshold; jobs = effective_jobs jobs; seed; fault_plan;
        verify_static }
    in
    Ok { app; board; cluster = Cluster.make ~topology ~board k; options }
  in
  Term.(const check $ design app_arg $ cluster_fpgas_arg $ topology_arg $ board_arg $ threshold_arg
        $ compile_jobs_arg $ seed_arg $ loss_rate_arg $ fail_fpga_arg $ fail_link_arg
        $ verify_static)

(* Run [f] on a checked value, or print why it was refused (exit 1). *)
let checked r f =
  match r with
  | Error e ->
    prerr_endline e;
    1
  | Ok x -> f x

(* Compile a target through [flow], then run [f] on the design. *)
let compiled ~flow t f =
  let graph = t.app.App.graph in
  let result =
    match flow with
    | `Vitis -> Flow.vitis ~board:t.board graph
    | `Tapa -> Flow.tapa ~board:t.board ~options:t.options graph
    | `Tapa_cs -> Flow.tapa_cs ~options:t.options ~cluster:t.cluster graph
  in
  match result with
  | Error e ->
    Format.printf "compilation failed: %s@." e;
    1
  | Ok des -> f des

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

(* Counters as (JSON key, table label, value) rows, printed as one JSON
   object or as a table. *)
let print_stat_rows ~json ~title rows =
  if json then
    Format.printf "%s@."
      (Tapa_cs_util.Json.(to_string (Obj (List.map (fun (key, _, v) -> (key, Int v)) rows))))
  else
    Tapa_cs_util.Table.print ~title
      ~header:[ "counter"; "value" ]
      ~aligns:[ Tapa_cs_util.Table.Left; Tapa_cs_util.Table.Right ]
      (List.map (fun (_, label, v) -> [ label; string_of_int v ]) rows)

(* Process-wide simulation-cache and static-pruning counts. *)
let sim_stat_rows () =
  let sim_hits, sim_misses = Tapa_cs_sim.Design_sim.cache_stats () in
  [
    ("sim_cache_hits", "sim cache hits (process)", sim_hits);
    ("sim_cache_misses", "sim cache misses (process)", sim_misses);
    ( "static_pruned",
      "statically pruned sweep points (process)",
      Tapa_cs_sim.Sim_sweep.static_pruned () );
  ]

(* Solver counters of one compile plus the process-wide cache counts.
   The solver counters come from [Compiler.solver_stats] and are
   bit-stable across [--jobs] and cache states; the cache counts are
   process-wide and depend on what ran earlier, so they are labelled as
   such. *)
let print_solver_stats ~json c =
  let s = Compiler.solver_stats c in
  let cache_hits, cache_misses = Tapa_cs_floorplan.Partition.cache_stats () in
  let fs = Tapa_cs_floorplan.Partition.fragment_stats () in
  print_stat_rows ~json ~title:"solver statistics"
    (List.map
       (fun (f : Tapa_cs_ilp.Counters.field) -> (f.key, f.label, f.get s))
       Tapa_cs_ilp.Counters.fields
    @ [
        ("floorplan_cache_hits", "floorplan cache hits (process)", cache_hits);
        ("floorplan_cache_misses", "floorplan cache misses (process)", cache_misses);
        ("frag_hits", "fragment cache hits (process)", fs.frag_hits);
        ("frag_misses", "fragment cache misses (process)", fs.frag_misses);
        ("groups_resolved", "subproblems re-solved (process)", fs.groups_resolved);
      ]
    @ sim_stat_rows ())

let stats_arg =
  let doc =
    "Print solver statistics after the compile: LP solves and pivots, how many relaxations the \
     float-first simplex certified vs fell back to exact arithmetic, branch-and-bound nodes, \
     refinement moves, hierarchical-decomposition subproblems, portfolio race wins per arm, \
     incumbent broadcasts and the process-wide floorplan-cache hit/miss counts."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let stats_json_arg =
  let doc = "With $(b,--stats): emit the counters as a single JSON object instead of a table." in
  Arg.(value & flag & info [ "stats-json" ] ~doc)

(* The simulate command's counterpart of [print_solver_stats]: just the
   process-wide simulation-cache counters, since a simulate run may use
   a flow with no compile step (and the interesting cache here is the
   simulator's, not the floorplanner's). *)
let print_sim_stats ~json () =
  print_stat_rows ~json ~title:"simulation statistics" (sim_stat_rows ())

let verify_static_arg =
  let doc =
    "After compiling, run the timed simulation and fail the compile if the simulated latency \
     falls outside the statically derived [lower, upper] latency interval (TCS503)."
  in
  Arg.(value & flag & info [ "verify-static" ] ~doc)

let compile_cmd =
  let run target flow stats stats_json =
    checked target @@ fun t ->
    Format.printf "%a@." App.pp t.app;
    Option.iter
      (fun p -> List.iter (Format.printf "injecting: %s@.") (Tapa_cs_network.Fault.describe p))
      t.options.Compiler.fault_plan;
    compiled ~flow t @@ fun des ->
    Format.printf "flow %s: %.0f MHz (max slot utilization %s)@." des.Flow.label des.Flow.freq_mhz
      (Tapa_cs_util.Table.fmt_pct des.Flow.max_slot_util);
    (match des.Flow.compiled with
    | Some c ->
      Format.printf "%a" Compiler.pp_summary c;
      Format.printf "floorplanner runtimes: L1 %.2fs, L2 %.2fs@." c.Compiler.l1_runtime_s
        c.Compiler.l2_runtime_s;
      Format.printf "static bounds: %a@." Tapa_cs_analysis.Static_perf.pp c.Compiler.static;
      if t.options.Compiler.verify_static then
        Format.printf "static verification: simulated latency inside the interval@.";
      if stats then print_solver_stats ~json:stats_json c
    | None ->
      if stats then
        Format.printf "no solver statistics: flow %s has no compile step@." des.Flow.label);
    0
  in
  let term =
    Term.(const run $ target verify_static_arg $ flow_arg $ stats_arg $ stats_json_arg)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Run the seven-step TAPA-CS compile and print the floorplan.") term

let simulate_cmd =
  let run target flow stats stats_json =
    checked target @@ fun t ->
    compiled ~flow t @@ fun des ->
    let faults =
      Option.value t.options.Compiler.fault_plan ~default:Tapa_cs_network.Fault.no_faults
    in
    let outcome = Flow.simulate_outcome ~faults des in
    let print_result (r : Tapa_cs_sim.Design_sim.result) =
      Format.printf "flow %s on %d FPGA(s): %.0f MHz@." des.Flow.label t.app.App.fpgas
        des.Flow.freq_mhz;
      Format.printf "end-to-end latency: %.4f s (%d simulation events)@." r.latency_s r.events;
      List.iter
        (fun (l : Tapa_cs_sim.Design_sim.link_stat) ->
          Format.printf "  link %d->%d: %s moved, busy %.2f ms@." l.src_fpga l.dst_fpga
            (Tapa_cs_util.Table.fmt_bytes l.bytes)
            (1e3 *. l.busy_s))
        r.links
    in
    let code =
      match outcome with
      | Tapa_cs_sim.Design_sim.Completed r ->
        print_result r;
        Format.printf "status: Completed@.";
        0
      | Tapa_cs_sim.Design_sim.Degraded { result = r; reasons } ->
        print_result r;
        Format.printf "status: Degraded@.";
        List.iter (Format.printf "  reason: %s@.") reasons;
        0
      | Tapa_cs_sim.Design_sim.Failed { fault; partial } ->
        print_result partial;
        Format.printf "status: Failed (%s)@." fault;
        1
    in
    if stats then print_sim_stats ~json:stats_json ();
    code
  in
  let sim_stats_arg =
    let doc =
      "Print the process-wide simulation-cache hit/miss counters after the run."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let term =
    Term.(const run $ target (Term.const false) $ flow_arg $ sim_stats_arg $ stats_json_arg)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Compile and run the timed simulation, optionally under injected faults.") term

let sweep_cmd =
  let max_fpgas_arg =
    let doc = "Largest cluster size to sweep (the curve runs k = 1 .. this)." in
    Arg.(value & opt positive_int 4 & info [ "max-fpgas" ] ~doc)
  in
  let sweep_jobs_arg =
    jobs_arg
      "Worker domains for the simulation sweep (the compiled points simulate concurrently \
       through the parallel harness).  0 selects the default; results are byte-identical for \
       every value."
  in
  let run (spec : Catalog.spec) max_fpgas topology board threshold jobs seed stats =
    let app = spec.Catalog.app in
    let board = board_of_name board in
    let compiled =
      List.filter_map
        (fun k ->
          match Catalog.build { spec with fpgas = k } with
          | Error e ->
            prerr_endline e;
            None
          | Ok a -> (
            let cluster = Cluster.make ~topology ~board k in
            let options =
              { Compiler.default_options with threshold; jobs = effective_jobs jobs; seed }
            in
            match Flow.tapa_cs ~options ~cluster a.App.graph with
            | Error e -> Some (k, Error e)
            | Ok des -> Some (k, Ok { des with Flow.label = Printf.sprintf "%s@%d" app k })))
        (List.init max_fpgas (fun i -> i + 1))
    in
    let designs = List.filter_map (fun (_, r) -> Result.to_option r) compiled in
    let outcomes = Flow.simulate_many ~jobs:(effective_jobs jobs) designs in
    let outcome_of label =
      List.assoc_opt label outcomes
    in
    let base_latency = ref None in
    let rows =
      List.map
        (fun (k, r) ->
          match r with
          | Error e -> [ string_of_int k; "-"; "-"; "-"; "failed: " ^ e ]
          | Ok des -> (
            match outcome_of des.Flow.label with
            | Some (Tapa_cs_sim.Design_sim.Completed res)
            | Some (Tapa_cs_sim.Design_sim.Degraded { result = res; _ }) ->
              if !base_latency = None then base_latency := Some res.latency_s;
              let speedup =
                match !base_latency with
                | Some b when res.latency_s > 0.0 -> Printf.sprintf "%.2fx" (b /. res.latency_s)
                | _ -> "-"
              in
              [
                string_of_int k;
                Printf.sprintf "%.0f" des.Flow.freq_mhz;
                Printf.sprintf "%.3f" (1e3 *. res.latency_s);
                string_of_int res.events;
                speedup;
              ]
            | Some (Tapa_cs_sim.Design_sim.Failed { fault; _ }) ->
              [ string_of_int k; "-"; "-"; "-"; "sim failed: " ^ fault ]
            | None -> [ string_of_int k; "-"; "-"; "-"; "no result" ]))
        compiled
    in
    Tapa_cs_util.Table.print
      ~title:(Printf.sprintf "%s scaling sweep (simulated)" app)
      ~header:[ "FPGAs"; "MHz"; "latency ms"; "events"; "speedup" ]
      ~aligns:
        [
          Tapa_cs_util.Table.Right; Tapa_cs_util.Table.Right; Tapa_cs_util.Table.Right;
          Tapa_cs_util.Table.Right; Tapa_cs_util.Table.Left;
        ]
      rows;
    if stats then begin
      let h, m = Tapa_cs_sim.Design_sim.cache_stats () in
      Format.printf "sim cache: %d hits, %d misses (process)@." h m
    end;
    0
  in
  let term =
    Term.(const run $ design ~fpgas:(const 1) app_arg $ max_fpgas_arg $ topology_arg $ board_arg
          $ threshold_arg $ sweep_jobs_arg $ seed_arg $ stats_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Compile an application at every cluster size up to --max-fpgas and simulate all \
          points concurrently through the parallel sweep harness.  Output is byte-identical \
          for every --jobs value.")
    term

let dot_cmd =
  let run spec =
    checked (Catalog.build spec) @@ fun a ->
    print_string (Taskgraph.to_dot a.App.graph);
    0
  in
  let term = Term.(const run $ design app_arg) in
  Cmd.v (Cmd.info "dot" ~doc:"Print the task graph in Graphviz format (Fig. 9 style).") term

let emit_cmd =
  let out_arg =
    let doc = "Output directory for the CAD artifacts." in
    Arg.(value & opt string "tapa_cs_out" & info [ "out"; "o" ] ~doc)
  in
  let run spec topology threshold jobs out =
    checked (Catalog.build spec) @@ fun a ->
    let options = { Compiler.default_options with threshold; jobs = effective_jobs jobs } in
    let cluster = Cluster.make ~topology ~board:Board.u55c spec.Catalog.fpgas in
    match Compiler.compile ~options ~cluster a.App.graph with
    | Error e ->
      Format.printf "compilation failed: %s@." e;
      1
    | Ok c ->
      Emit.write_all c ~dir:out;
      Format.printf "wrote floorplan tcl, connectivity cfg and design_report.json to %s/@." out;
      0
  in
  let term =
    Term.(const run $ design app_arg $ topology_arg $ threshold_arg $ compile_jobs_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Compile and write the Vitis-style CAD constraints (step 7 of §4.2).")
    term

let autoscale_cmd =
  let elems_arg =
    Arg.(value & opt non_negative_float 1e8 & info [ "elems" ] ~doc:"Total elements of work.")
  in
  let ops_arg =
    Arg.(value & opt non_negative_float 8.0 & info [ "ops" ] ~doc:"Arithmetic ops per element.")
  in
  let bytes_arg =
    let doc = "External-memory bytes per element." in
    Arg.(value & opt non_negative_float 8.0 & info [ "bytes" ] ~doc)
  in
  let lanes_arg = Arg.(value & opt positive_int 4 & info [ "lanes" ] ~doc:"Elements per cycle one PE sustains.") in
  let lut_arg = Arg.(value & opt positive_int 30_000 & info [ "pe-lut" ] ~doc:"LUTs per processing element.") in
  let measured_arg =
    let doc =
      "Also lower every plan into its PE-level task graph and run the timed simulator on it \
       (through the parallel sweep harness), printing measured next to predicted latency."
    in
    Arg.(value & flag & info [ "measured" ] ~doc)
  in
  let measured_jobs_arg =
    jobs_arg "Worker domains for the --measured simulation sweep (0 = default)."
  in
  let slo_ms_arg =
    let doc =
      "Latency SLO in milliseconds for the --measured sweep.  Points whose certified static \
       lower bound already exceeds the SLO are pruned without simulating (counted in \
       --stats-json as static_pruned).  0 disables pruning."
    in
    Arg.(value & opt non_negative_float 0.0 & info [ "slo-ms" ] ~doc)
  in
  let autoscale_stats_arg =
    let doc = "Print the simulation-cache and static-pruning counters after the sweep." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let run fpgas elems ops bytes lanes lut measured jobs slo_ms stats stats_json =
    let kernel =
      {
        Autoscale.name = "cli-kernel";
        elems;
        ops_per_elem = ops;
        bytes_per_elem = bytes;
        pe_resources = Resource.make ~lut ~ff:(3 * lut / 2) ~bram:(lut / 800) ~dsp:(lut / 400) ();
        pe_lanes = lanes;
        exchange_bytes = elems *. bytes /. 100.0;
      }
    in
    let cluster = Cluster.make ~board:Board.u55c fpgas in
    let describe_result (r : Tapa_cs_sim.Design_sim.result) =
      Printf.sprintf "%.3f ms measured" (1e3 *. r.Tapa_cs_sim.Design_sim.latency_s)
    in
    let describe_outcome = function
      | Tapa_cs_sim.Design_sim.Completed r | Tapa_cs_sim.Design_sim.Degraded { result = r; _ } ->
        describe_result r
      | Tapa_cs_sim.Design_sim.Failed { fault; _ } -> "sim failed: " ^ fault
    in
    if measured && slo_ms > 0.0 then
      List.iter
        (fun (_, plan, row) ->
          let note =
            match row with
            | Tapa_cs_sim.Sim_sweep.Simulated outcome -> describe_outcome outcome
            | Tapa_cs_sim.Sim_sweep.Pruned { lower_bound_s } ->
              Printf.sprintf "pruned (static lower bound %.3f ms > SLO)" (1e3 *. lower_bound_s)
          in
          Format.printf "%a | %s@." Autoscale.pp_plan plan note)
        (Autoscale.measured_sweep_slo ~jobs:(effective_jobs jobs)
           ~slo_latency_s:(1e-3 *. slo_ms) ~cluster kernel)
    else if measured then
      List.iter
        (fun (_, plan, outcome) ->
          Format.printf "%a | %s@." Autoscale.pp_plan plan (describe_outcome outcome))
        (Autoscale.measured_sweep ~jobs:(effective_jobs jobs) ~cluster kernel)
    else
      List.iter (fun (_, plan) -> Format.printf "%a@." Autoscale.pp_plan plan)
        (Autoscale.sweep ~cluster kernel);
    if stats then print_sim_stats ~json:stats_json ();
    0
  in
  let term =
    Term.(const run $ fpgas_arg $ elems_arg $ ops_arg $ bytes_arg $ lanes_arg $ lut_arg
          $ measured_arg $ measured_jobs_arg $ slo_ms_arg $ autoscale_stats_arg $ stats_json_arg)
  in
  Cmd.v
    (Cmd.info "autoscale"
       ~doc:"Roofline-driven scale-up advice for a data-parallel kernel (the section-7 extension).")
    term

let lint_cmd =
  let lint_names = Catalog.apps @ [ "broken" ] in
  let lint_app_arg =
    let doc =
      "Design to lint: " ^ String.concat ", " lint_names
      ^ ". Omitted: lint every shipped benchmark."
    in
    Arg.(value
         & opt (some (enum (List.map (fun a -> (a, a)) lint_names))) None
         & info [ "app" ] ~doc)
  in
  let json_arg =
    let doc = "Emit machine-readable JSON-lines instead of the pretty report." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let only_arg =
    let doc =
      "Report only diagnostics of this severity ($(b,error), $(b,warning) or $(b,info)).  The \
       exit code is computed from the filtered list, identically in JSON and pretty modes."
    in
    Arg.(value
         & opt
             (some
                (enum
                   [
                     ("error", Tapa_cs_analysis.Diagnostic.Error);
                     ("warning", Tapa_cs_analysis.Diagnostic.Warning);
                     ("info", Tapa_cs_analysis.Diagnostic.Info);
                   ]))
             None
         & info [ "only" ] ~doc)
  in
  let max_warnings_arg =
    let doc =
      "Exit non-zero when more than N warning-severity diagnostics are reported (after \
       --only filtering).  Negative disables the gate."
    in
    Arg.(value & opt int (-1) & info [ "max-warnings" ] ~doc ~docv:"N")
  in
  let run app (spec : Catalog.spec) topology threshold json only max_warnings =
    let make = function
      | "broken" -> Ok (Broken.generate ())
      | name -> Catalog.build { spec with app = name }
    in
    let targets = match app with Some a -> [ a ] | None -> Catalog.apps in
    let fpgas = spec.Catalog.fpgas in
    let cluster = Cluster.make ~topology ~board:Board.u55c fpgas in
    let warnings = ref 0 in
    let lint_one status name =
      checked (make name) @@ fun a ->
      let all = Tapa_cs_analysis.Lint.run_all ~threshold ~cluster a.App.graph in
      let ds =
        match only with
        | None -> all
        | Some sev -> List.filter (fun d -> d.Tapa_cs_analysis.Diagnostic.severity = sev) all
      in
      let nerr = List.length (Tapa_cs_analysis.Diagnostic.errors ds) in
      warnings :=
        !warnings
        + List.length
            (List.filter
               (fun d -> d.Tapa_cs_analysis.Diagnostic.severity = Tapa_cs_analysis.Diagnostic.Warning)
               ds);
      (* Exit code comes from the same filtered list in both modes; only
         the rendering differs. *)
      if json then begin
        if ds <> [] then print_endline (Tapa_cs_analysis.Diagnostic.render ~json:true ds)
      end
      else begin
        Format.printf "== %s (%s) on %d x %s ==@." a.App.name a.App.variant fpgas
          (Cluster.board cluster 0).Board.name;
        print_string (Tapa_cs_analysis.Diagnostic.render ds)
      end;
      if nerr > 0 then 1 else status
    in
    let status = List.fold_left lint_one 0 targets in
    if max_warnings >= 0 && !warnings > max_warnings then begin
      if not json then
        Format.printf "lint: %d warning(s) exceed --max-warnings %d@." !warnings max_warnings;
      1
    end
    else status
  in
  let term =
    (* The design flags, for each design the optional --app names. *)
    Term.(const run $ lint_app_arg $ design (const "") $ topology_arg $ threshold_arg $ json_arg
          $ only_arg $ max_warnings_arg)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static design linter (step 0 of the compile): graph shape, deadlock, \
          rate/width and capacity checks.  Exits non-zero when any error-severity diagnostic \
          is raised, or when warnings exceed --max-warnings.")
    term

let analyze_cmd =
  let json_arg =
    let doc =
      "Emit the bounds as a JSON object followed by the diagnostics as JSON-lines."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run target json =
    checked target @@ fun t ->
    compiled ~flow:`Tapa_cs t @@ fun des ->
    match des.Flow.compiled with
    | None ->
      Format.printf "flow %s has no compile step to analyze@." des.Flow.label;
      1
    | Some c ->
      let module Static_perf = Tapa_cs_analysis.Static_perf in
      let module Diagnostic = Tapa_cs_analysis.Diagnostic in
      let s = c.Compiler.static in
      let ds =
        Diagnostic.sort
          (Static_perf.depth_diagnostics ~graph:c.Compiler.graph s @ Emit.verify_roundtrip c)
      in
      if json then begin
        Format.printf
          "{\"latency_lower_s\":%.9e,\"latency_upper_s\":%.9e,\"steady_ii_s\":%.9e,\"throughput_chunks_per_s\":%.9e}@."
          s.Static_perf.latency_lower_s s.Static_perf.latency_upper_s
          s.Static_perf.steady_ii_s s.Static_perf.throughput_chunks_per_s;
        if ds <> [] then print_endline (Diagnostic.render ~json:true ds)
      end
      else begin
        Format.printf "== %s (%s) on %d FPGA(s) ==@." t.app.App.name t.app.App.variant
          t.app.App.fpgas;
        Format.printf "%a@." Static_perf.pp s;
        if t.options.Compiler.verify_static then
          Format.printf "static verification: simulated latency inside the interval@.";
        print_string (Diagnostic.render ds)
      end;
      if Diagnostic.errors ds <> [] then 1 else 0
  in
  let term =
    Term.(const run $ target verify_static_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Compile, derive the closed-form performance bounds and minimal FIFO depths \
          (TCS5xx), and round-trip the emitted CAD artifacts through the re-parser \
          (TCS6xx).  Exits non-zero on any error-severity diagnostic; --verify-static \
          additionally cross-checks the timed simulation against the interval.")
    term

let farm_cmd =
  let module Farm = Tapa_cs_farm.Farm in
  let module Tenant = Tapa_cs_farm.Tenant in
  let boards_arg =
    let doc = "Number of boards in the farm." in
    Arg.(value & opt positive_int 32 & info [ "boards" ] ~doc)
  in
  let boards_per_node_arg =
    let doc = "Boards per server node (the paper's testbed groups 4)." in
    Arg.(value & opt positive_int 4 & info [ "boards-per-node" ] ~doc)
  in
  let mix_arg =
    let doc =
      "Comma-separated board mix the farm cycles through: u55c, u250, stratix10."
    in
    Arg.(value & opt (list board_name) [ "u55c"; "u250"; "stratix10" ] & info [ "mix" ] ~doc)
  in
  let tenants_arg =
    let doc = "Number of tenant designs in the seeded admission stream." in
    Arg.(value & opt positive_int 12 & info [ "tenants" ] ~doc)
  in
  let horizon_arg =
    let doc = "Farm-clock horizon in seconds." in
    Arg.(value & opt positive_float 600.0 & info [ "horizon" ] ~doc)
  in
  let mean_gap_arg =
    let doc = "Mean tenant inter-arrival gap in seconds." in
    Arg.(value & opt positive_float 30.0 & info [ "mean-gap" ] ~doc)
  in
  let strict_every_arg =
    let doc = "Every Nth tenant gets the strict SLO (0 = all best-effort)." in
    Arg.(value & opt non_negative_int 3 & info [ "strict-every" ] ~doc)
  in
  let max_retries_arg =
    let doc = "Consecutive failed placement attempts before a tenant is reported down." in
    Arg.(value & opt non_negative_int 3 & info [ "max-retries" ] ~doc)
  in
  let backoff_arg =
    let doc = "Base retry backoff in farm-clock seconds (doubles per failure)." in
    Arg.(value & opt non_negative_float 5.0 & info [ "backoff" ] ~doc)
  in
  let timeline_arg =
    let doc =
      "Fault/recovery timeline file: one event per line ('<t> device-down|device-up <i>', \
       '<t> link-down|link-up <A:B>', '<t> loss <rate>'); blank lines and # comments \
       ignored.  Malformed lines are reported as TCS308 diagnostics."
    in
    Arg.(value & opt (some string) None & info [ "timeline" ] ~doc ~docv:"FILE")
  in
  let event_arg =
    let doc = "Inline timeline event, same syntax as a --timeline line (repeatable)." in
    Arg.(value & opt_all string [] & info [ "event" ] ~doc ~docv:"EVENT")
  in
  let stats_json_file_arg =
    let doc = "Write the machine-readable stats timeline to this file ('-' = stdout)." in
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~doc ~docv:"FILE")
  in
  let parse_timeline ~file ~events =
    let reject flag spec reason =
      Error
        (Tapa_cs_analysis.Diagnostic.render
           [ Tapa_cs_analysis.Lint.fault_spec_error ~flag ~spec ~reason ])
    in
    let file_lines =
      match file with
      | None -> Ok []
      | Some path -> (
        match In_channel.with_open_text path In_channel.input_lines with
        | lines -> Ok (List.map (fun l -> ("--timeline", l)) lines)
        | exception Sys_error m -> reject "--timeline" path (os_reason ~path m))
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (flag, line) :: rest ->
        let t = String.trim line in
        if t = "" || t.[0] = '#' then go acc rest
        else begin
          match Tapa_cs_network.Fault.parse_timeline_entry t with
          | Ok e -> go (e :: acc) rest
          | Error reason -> reject flag line reason
        end
    in
    Result.bind file_lines (fun lines -> go [] (lines @ List.map (fun e -> ("--event", e)) events))
  in
  let run boards boards_per_node mix tenants topology threshold seed horizon mean_gap
      strict_every max_retries backoff timeline_file events stats_json_file jobs =
    checked
      (Result.bind (parse_timeline ~file:timeline_file ~events) (fun entries ->
           Result.map
             (fun write -> (entries, write))
             (stats_json_writer ~what:"stats timeline" stats_json_file)))
    @@ fun (entries, write_stats) ->
    let timeline = Tapa_cs_network.Fault.timeline entries in
    let cluster =
      Cluster.heterogeneous ~topology ~boards_per_node (List.map board_of_name mix) boards
    in
    let workload = Tenant.workload ~strict_every ~mean_gap_s:mean_gap ~seed ~tenants () in
    let config = { Farm.threshold; seed; max_retries; backoff_s = backoff; horizon_s = horizon } in
    with_pool (effective_jobs jobs) @@ fun pool ->
    Format.printf "%a@." Tapa_cs_network.Fault.pp_timeline timeline;
    let stats = Farm.run ?pool ~config ~cluster ~timeline workload in
    Format.printf "%a" Farm.pp_summary stats;
    write_stats (Farm.stats_json stats);
    0
  in
  let term =
    Term.(const run $ boards_arg $ boards_per_node_arg $ mix_arg $ tenants_arg $ topology_arg
          $ threshold_arg $ seed_arg $ horizon_arg $ mean_gap_arg $ strict_every_arg
          $ max_retries_arg $ backoff_arg $ timeline_arg $ event_arg $ stats_json_file_arg
          $ compile_jobs_arg)
  in
  Cmd.v
    (Cmd.info "farm"
       ~doc:
         "Run the deterministic multi-tenant farm controller: a seeded tenant stream admitted \
          onto a heterogeneous board farm, churned by a fault/recovery timeline, with bounded-\
          retry re-placement and availability accounting.  The --stats-json timeline is byte-\
          identical across runs and --jobs values for equal inputs.")
    term

(* ------------------------------------------------------------------ *)
(* serve / request: the compile service (DESIGN.md §5j)                *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let module Service = Tapa_cs_service.Service in
  let module Script = Tapa_cs_service.Script in
  let module Server = Tapa_cs_service.Server in
  let socket_arg =
    let doc = "Unix domain socket path to listen on (live mode)." in
    Arg.(value & opt string "/tmp/tapa_cs.sock" & info [ "socket" ] ~doc)
  in
  let script_arg =
    let doc =
      "Replay mode: drive a seeded synthetic client stream on a virtual clock instead of \
       listening on a socket.  The report is wall-clock-free and byte-identical across runs \
       and --jobs."
    in
    Arg.(value & flag & info [ "script" ] ~doc)
  in
  let clients_arg =
    let doc = "Closed-loop clients in --script mode." in
    Arg.(value & opt positive_int 4 & info [ "clients" ] ~doc)
  in
  let rpc_arg =
    let doc = "Requests each scripted client issues." in
    Arg.(value & opt non_negative_int 8 & info [ "requests-per-client" ] ~doc)
  in
  let distinct_arg =
    let doc = "Size of the request universe the scripted clients draw from." in
    Arg.(value & opt positive_int 6 & info [ "distinct" ] ~doc)
  in
  let warm_arg =
    let doc = "Pre-fill the response cache with the whole universe before the measured stream." in
    Arg.(value & flag & info [ "warm" ] ~doc)
  in
  let think_ms_arg =
    let doc = "Virtual think time between a scripted response and the next request, ms." in
    Arg.(value & opt non_negative_float 0.0 & info [ "think-ms" ] ~doc)
  in
  let max_depth_arg =
    let doc = "Admission bound: distinct computations a round may schedule (strict class)." in
    Arg.(value & opt positive_int Service.default_config.Service.max_depth & info [ "max-depth" ] ~doc)
  in
  let best_effort_depth_arg =
    let doc = "Earlier shedding bound for best-effort requests (clamped to --max-depth)." in
    Arg.(value
         & opt positive_int Service.default_config.Service.best_effort_depth
         & info [ "best-effort-depth" ] ~doc)
  in
  let max_requests_arg =
    let doc = "Live mode: exit after answering this many requests (0 = serve forever)." in
    Arg.(value & opt int 0 & info [ "max-requests" ] ~doc)
  in
  let stats_json_arg =
    let doc = "Write the final report/metrics JSON to $(docv) ('-' for stdout)." in
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~doc ~docv:"FILE")
  in
  let run script socket clients rpc distinct seed warm think_ms max_depth best_effort_depth
      max_requests stats_json_file jobs =
    checked (stats_json_writer ~what:"service stats" stats_json_file) @@ fun emit_stats ->
    let jobs = effective_jobs jobs in
    with_pool jobs @@ fun pool ->
    let service_config = { Service.max_depth; best_effort_depth; cache_entries = 8192 } in
    if script then begin
      let cfg =
        {
          Script.clients;
          requests_per_client = rpc;
          distinct;
          seed;
          warm;
          think_s = think_ms /. 1000.0;
          service_config;
        }
      in
      let report = Script.run ?pool cfg in
      let c = report.Script.counters in
      Format.printf "script: %d clients x %d requests, universe %d, %s@." cfg.Script.clients
        cfg.Script.requests_per_client cfg.Script.distinct
        (if warm then "warm" else "cold");
      Format.printf "  received %d  completed %d  hits %d  misses %d  coalesced %d  rejected %d@."
        c.Service.received c.Service.completed c.Service.hits c.Service.misses c.Service.coalesced
        (c.Service.rejected_strict + c.Service.shed_best_effort);
      Format.printf "  virtual makespan %.6f s  throughput %.1f req/s@."
        report.Script.virtual_makespan_s report.Script.virtual_requests_per_s;
      emit_stats (Script.report_json report);
      0
    end
    else begin
      let svc = Service.create ?pool ~config:service_config () in
      let server = Server.create ~socket_path:socket svc in
      Fun.protect ~finally:(fun () -> Server.close server) @@ fun () ->
      Format.printf "listening on %s (max-depth %d, best-effort %d, jobs %d)@." socket max_depth
        best_effort_depth jobs;
      let served = Server.serve ~max_requests server in
      Format.printf "served %d request(s)@." served;
      emit_stats (Service.metrics_json svc);
      0
    end
  in
  let term =
    Term.(const run $ script_arg $ socket_arg $ clients_arg $ rpc_arg $ distinct_arg $ seed_arg
          $ warm_arg $ think_ms_arg $ max_depth_arg $ best_effort_depth_arg $ max_requests_arg
          $ stats_json_arg $ compile_jobs_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compile service: newline-delimited JSON requests over a Unix domain socket, \
          deduplicated against the warm caches, coalesced, and batched through the shared \
          worker pool behind a bounded admission queue.  --script replays a seeded synthetic \
          client stream on a virtual clock instead, for byte-identical benchmarking.")
    term

let request_cmd =
  let module Request = Tapa_cs_service.Request in
  let module Server = Tapa_cs_service.Server in
  let socket_arg =
    let doc = "Unix domain socket path of the running service." in
    Arg.(value & opt string "/tmp/tapa_cs.sock" & info [ "socket" ] ~doc)
  in
  let kind_arg =
    let doc = "Request kind: compile, simulate or metrics." in
    Arg.(value
         & opt
             (enum
                [ ("compile", Request.Compile); ("simulate", Request.Simulate);
                  ("metrics", Request.Metrics) ])
             Request.Compile
         & info [ "kind" ] ~doc)
  in
  let app_opt_arg =
    let doc = "Benchmark application: " ^ String.concat ", " Catalog.apps ^ "." in
    Arg.(value
         & opt (enum (List.map (fun a -> (a, a)) Catalog.apps)) "stencil"
         & info [ "app" ] ~doc)
  in
  let id_arg =
    let doc = "Correlation id echoed in the response." in
    Arg.(value & opt int 0 & info [ "id" ] ~doc)
  in
  let class_arg =
    let doc = "Admission class: strict or best-effort." in
    Arg.(value
         & opt
             (enum
                [ ("strict", Tapa_cs_farm.Tenant.Strict);
                  ("best-effort", Tapa_cs_farm.Tenant.Best_effort) ])
             Tapa_cs_farm.Tenant.Best_effort
         & info [ "class" ] ~doc)
  in
  let json_arg =
    let doc = "Send this raw JSON line instead of building one from the flags." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc)
  in
  let metrics_arg =
    let doc = "Shortcut for --kind metrics." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let run socket json metrics kind { Catalog.app; fpgas; iters; dataset; n; d; cols } seed klass
      id =
    let line =
      match json with
      | Some j -> j
      | None ->
        let kind = if metrics then Request.Metrics else kind in
        Request.to_line
          (Request.make ~id ~fpgas ~iters ~dataset ~n ~d ~cols ~seed ~klass ~kind ~app ())
    in
    checked (Server.request_once ~socket_path:socket line) @@ fun response ->
    print_endline response;
    0
  in
  let term =
    Term.(const run $ socket_arg $ json_arg $ metrics_arg $ kind_arg $ design app_opt_arg
          $ seed_arg $ class_arg $ id_arg)
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request to a running compile service and print the response line \
          (one-shot client for scripts and CI smoke tests).")
    term

let info_cmd =
  let run () =
    let b = Board.u55c () in
    Format.printf "%a@." Board.pp b;
    Format.printf "%a@." Board.pp (Board.u250 ());
    Format.printf "%a@." Board.pp (Board.stratix10 ());
    Format.printf "@.protocols:@.";
    List.iter (fun p -> Format.printf "  %a@." Tapa_cs_network.Protocol.pp p) Tapa_cs_network.Protocol.all;
    Format.printf "@.datasets:@.";
    List.iter
      (fun (s : Dataset.spec) -> Format.printf "  %-18s %8d nodes %9d edges@." s.name s.nodes s.edges)
      Dataset.all;
    0
  in
  Cmd.v (Cmd.info "info" ~doc:"List device models, protocols and datasets.") Term.(const run $ const ())

let () =
  let doc = "TAPA-CS reproduction: multi-FPGA dataflow compiler and simulator" in
  let main =
    Cmd.group (Cmd.info "tapa_cs_cli" ~doc)
      [
        compile_cmd; simulate_cmd; sweep_cmd; dot_cmd; emit_cmd; autoscale_cmd; analyze_cmd;
        lint_cmd; farm_cmd; serve_cmd; request_cmd; info_cmd;
      ]
  in
  exit (Cmd.eval' main)
