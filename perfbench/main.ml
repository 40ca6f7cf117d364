(* Benchmark entry point:

     main.exe --workload <compile_cold|serve_stream|farm_churn> --seed <n>
              --seconds <s> --trace <0|1>

   Prints report lines starting with '#', then one JSON result line.
   With --trace 0 the result carries the end-to-end metrics, with
   --trace 1 the per-layer metrics (a layer the workload does not call
   reads 0).  README.md lists every metric with its meaning. *)

module Pool = Tapa_cs_util.Pool

let end_to_end =
  [
    ("op_ms", "ms");
    ("tail_ms", "ms");
    ("ops_per_s", "1/s");
    ("quality", "ratio");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("ok_frac", "ratio");
  ]

let per_layer =
  let ms = List.map (fun n -> (n, "ms")) and count = List.map (fun n -> (n, "count")) and ratio = List.map (fun n -> (n, "ratio")) in
  List.concat
    [
      ms (List.map (fun s -> s ^ ".ms") Wl_compile.step_names);
      ratio [ "inter_fpga.share"; "intra_fpga.share" ];
      ms [ "design_sim.ms" ];
      count [ "design_sim.events"; "ilp.lp_solves"; "ilp.lp_pivots"; "ilp.bb_nodes"; "ilp.lp_fallbacks" ];
      ratio [ "ilp.lp_certified_frac" ];
      count [ "ilp.subproblems"; "ilp.races_anneal"; "partition.frag_misses" ];
      ms [ "emit.verify_ms" ];
      ms (List.map (fun n -> "compile_ms." ^ n) Wl_compile.design_names);
      [ ("request.parse_us", "us"); ("service.schedule_ms", "ms"); ("service.response_us", "us") ];
      ratio [ "service.hit_frac" ];
      count [ "service.misses"; "service.coalesced"; "service.queue_depth_peak"; "serve.backlog_peak" ];
      ratio [ "partition.solution_hit_frac"; "design_sim.cache_hit_frac" ];
      count [ "farm.attempts"; "farm.replacements"; "farm.reused" ];
      ratio [ "farm.reuse_frac" ];
      count [ "farm.frag_hits"; "farm.frag_misses" ];
      ratio [ "farm.frag_hit_frac" ];
      count [ "farm.groups_resolved" ];
      [ ("farm.mean_ttr_s", "sim_s") ];
      ms [ "trace.uncovered_ms"; "trace.overhead_ms" ];
      count [ "pool.domains" ];
    ]

let workloads = [ ("compile_cold", Wl_compile.run); ("serve_stream", Wl_serve.run); ("farm_churn", Wl_farm.run) ]

let usage = "main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the measured region");
      ("--trace", Arg.Set_int trace, " 1 for the traced run (per-layer metrics)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline ("unknown workload; " ^ usage);
      exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  (* One caller-owned pool for every operation; TAPA_CS_JOBS plays no
     part.  It has no worker domains, so every operation runs on the
     calling domain alone.  With a second domain the portfolio race and
     the parallel branch-and-bound stop wherever the other arm happens to
     be, so the work an operation does, and not only its speed, follows
     the host's scheduling: on a 2-core host that doubled the run-to-run
     spread of the timings. *)
  let pool = Pool.create ~domains:0 () in
  let ctx = Bench.create ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~pool in
  Printf.printf "# workload %s seed %d seconds %g trace %d pool_domains %d\n" !workload !seed !seconds !trace
    (Bench.domains ctx);
  (* A workload that raises has failed, not crashed: the failure is
     counted and the result line is still printed. *)
  let measured =
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
        match run ctx with
        | values -> values
        | exception e ->
          Bench.fail ctx "workload raised %s" (Printexc.to_string e);
          [])
  in
  List.iter (fun reason -> Printf.printf "# FAILED %s\n" reason) (List.rev ctx.Bench.notes);
  let table, extra =
    if ctx.Bench.trace then (per_layer, [ ("pool.domains", float_of_int (Bench.domains ctx)) ])
    else
      ( end_to_end,
        [
          ("peak_rss_mb", Stats.peak_rss_mb ());
          ("ok_frac", 1.0 -. (float_of_int ctx.Bench.failed /. float_of_int (max 1 ctx.Bench.attempted)));
        ] )
  in
  let values = measured @ extra in
  List.iter
    (fun (name, _) -> if not (List.mem_assoc name table) then failwith ("metric outside the table: " ^ name))
    values;
  let value name =
    match List.assoc_opt name values with
    | Some v when not (Float.is_finite v) ->
      Bench.fail ctx "%s is not finite" name;
      0.0
    | v -> Option.value ~default:0.0 v
  in
  let metrics = List.map (fun (name, unit) -> (name, value name, unit)) table in
  print_endline
    (Stats.result_line ~correct:(ctx.Bench.failed = 0) ~attempted:ctx.Bench.attempted ~failed:ctx.Bench.failed
       metrics)
