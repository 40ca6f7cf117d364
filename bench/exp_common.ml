(* Shared machinery for the experiment harness: flow runners with
   memoization, paper-vs-measured tables, and speedup helpers. *)

open Tapa_cs
open Tapa_cs_util
open Tapa_cs_device
open Tapa_cs_apps

type run = {
  label : string;
  freq_mhz : float;
  latency_s : float;
  design : Flow.design option;  (** None when the flow failed to route *)
  error : string option;
}

let unrouted label error = { label; freq_mhz = 0.0; latency_s = infinity; design = None; error = Some error }

let cluster_for k = Cluster.make ~board:Board.u55c k

(* Memo keyed by (app name, variant, fpgas, flow label): figures share the
   compile+simulate work of their common configurations. *)
let memo : (string * string * int * string, run) Hashtbl.t = Hashtbl.create 64

let run_flow ?(options = Compiler.default_options) (app : App.t) flow_label =
  let key = (app.App.name, app.App.variant, app.App.fpgas, flow_label) in
  match Hashtbl.find_opt memo key with
  | Some r -> r
  | None ->
    let result =
      match flow_label with
      | "F1-V" -> Flow.vitis app.App.graph
      | "F1-T" -> Flow.tapa ~options app.App.graph
      | _ -> Flow.tapa_cs ~options ~cluster:(cluster_for app.App.fpgas) app.App.graph
    in
    let r =
      match result with
      | Error e -> unrouted flow_label e
      | Ok d ->
        {
          label = flow_label;
          freq_mhz = d.Flow.freq_mhz;
          latency_s = Flow.latency_s d;
          design = Some d;
          error = None;
        }
    in
    Hashtbl.replace memo key r;
    r

(* Re-simulate a compiled design against a same-shape graph with different
   traffic volumes (used by the KNN / PageRank dataset sweeps, where the
   floorplan is invariant across datasets).  The synthesis profiles carry
   per-task cycle counts, so they are re-derived for the new volumes; the
   placement, binding and clock are structural and carry over. *)
let resimulate (base : Flow.design) (app : App.t) =
  let synthesis = Tapa_cs_hls.Synthesis.run ~board:(Cluster.board base.Flow.cluster 0) app.App.graph in
  let d = { base with Flow.graph = app.App.graph; synthesis } in
  Flow.latency_s d

let speedup ~baseline r = if r.latency_s > 0.0 then baseline /. r.latency_s else 0.0

let fmt_lat r =
  match r.error with
  | Some _ -> "fail"
  | None ->
    if r.latency_s >= 1.0 then Printf.sprintf "%.2fs" r.latency_s
    else Printf.sprintf "%.1fms" (r.latency_s *. 1e3)

let fmt_speedup_or_fail ~baseline r =
  match r.error with Some _ -> "fail" | None -> Table.fmt_speedup (speedup ~baseline r)

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "note: %s\n" s) fmt

let paper_vs_measured ~what ~paper ~measured =
  Printf.printf "%-46s paper %-10s measured %s\n" what paper measured

let flows_all = [ "F1-V"; "F1-T"; "F2"; "F3"; "F4" ]
let fpgas_of_flow = function "F1-V" | "F1-T" -> 1 | "F2" -> 2 | "F3" -> 3 | "F4" -> 4 | s -> int_of_string (String.sub s 1 (String.length s - 1))
