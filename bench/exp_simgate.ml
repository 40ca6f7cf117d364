(* CI gate for the simulation cache and the sweep harness.

   Two bit-identity properties on the compiled 4-FPGA stencil (a real
   multi-FPGA design with cross-device movers), each checked exactly —
   no tolerances:

   1. Cache transparency: a cache-cold run and a cache-warm rerun of the
      identical configuration must be bit-identical, events included.

   2. Sweep determinism: running a multi-point sweep with jobs=1 and
      with an explicit 4-domain pool must produce byte-identical rows.
      (Identity must hold on any host, including single-core CI boxes —
      the pool degrades to time-slicing there, which is exactly what the
      gate should see through.)

   Any difference fails the run outright: these are the invariants the
   result cache and the parallel harness are sold on. *)

open Tapa_cs
module Design_sim = Tapa_cs_sim.Design_sim
module Sim_sweep = Tapa_cs_sim.Sim_sweep

let run () =
  Exp_common.section "Simulation determinism gate (stencil 4-FPGA)";
  let app = Tapa_cs_apps.Stencil.generate (Tapa_cs_apps.Stencil.make_config ~iterations:8 ~fpgas:4 ()) in
  let d = Gate.compile ~label:"stencil 4-FPGA" ~fpgas:4 app.Tapa_cs_apps.App.graph in
  let cfg chunks = Flow.sim_config ~chunks d in

  (* 1. cache cold vs warm *)
  Design_sim.reset_cache ();
  ignore (Gate.repeatable ~label:"sim cache cold vs warm" (fun () -> Design_sim.run (cfg 64)));
  let hits, misses = Design_sim.cache_stats () in
  if hits < 1 || misses < 1 then Gate.fail "cache counters off: %d hits, %d misses" hits misses;
  Printf.printf "  cache transparency: cold = warm, %d hit(s) / %d miss(es)\n" hits misses;

  (* 2. sweep jobs=1 vs explicit 4-domain pool, cold cache both times *)
  let points = Array.map (fun chunks -> Sim_sweep.job ~label:(string_of_int chunks) (cfg chunks)) [| 16; 32; 64; 128 |] in
  Design_sim.reset_cache ();
  let seq = Sim_sweep.run ~jobs:1 ~cache:false points in
  let par = Sim_sweep.run ~jobs:4 ~cache:false points in
  if seq <> par then Gate.fail "sweep rows differ between jobs=1 and jobs=4";
  Array.iter
    (fun (label, outcome) ->
      match outcome with
      | Design_sim.Completed res ->
        Printf.printf "  sweep chunks=%-4s %.6f ms (%d events)\n" label
          (1e3 *. res.Design_sim.latency_s) res.Design_sim.events
      | _ -> Gate.fail "sweep point %s did not complete" label)
    seq;
  Printf.printf "  sweep determinism: jobs=1 and jobs=4 byte-identical\n";
  Printf.printf "  simulation gate passed\n"
