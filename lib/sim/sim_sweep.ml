module Pool = Tapa_cs_util.Pool
module Network = Tapa_cs_network

type job = {
  label : string;
  config : Design_sim.config;
  faults : Network.Fault.plan;
}

let job ?(faults = Network.Fault.no_faults) ~label config = { label; config; faults }

let run_one ~cache j = Design_sim.run_outcome ~cache ~faults:j.faults j.config

type slo_row =
  | Simulated of Design_sim.outcome
  | Pruned of { lower_bound_s : float }

(* Process-wide pruning tally for --stats-json observability.  Pruning
   decisions are made on the calling domain (the bound computation is
   microsecond-scale), so a plain ref suffices. *)
let pruned_count = ref 0
let static_pruned () = !pruned_count
let reset_static_pruned () = pruned_count := 0

let run ?jobs ?(cache = true) (js : job array) =
  let one j = (j.label, run_one ~cache j) in
  match jobs with
  | Some n when n <= 1 -> Array.map one js
  | None ->
    if Pool.default_jobs () < 2 || Array.length js < 2 then Array.map one js
    else Pool.parallel_map one js
  | Some n ->
    if Array.length js < 2 then Array.map one js
    else begin
      let pool = Pool.create ~domains:(n - 1) () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () -> Pool.parallel_map ~pool one js)
    end

let run_slo ?jobs ?cache ~slo_latency_s ~lower_bound_s (js : job array) =
  (* The screen is a pure function of each job, so the surviving subset
     is deterministic and its simulated rows — produced by the very same
     [run] — are byte-identical to the matching rows of an unpruned
     sweep.  A point is pruned only when even its certified lower bound
     misses the SLO; the bound is sound, so no survivor is lost. *)
  let bound = Array.map lower_bound_s js in
  let keep = Array.map (fun b -> b <= slo_latency_s) bound in
  let survivors =
    Array.of_list
      (List.filteri (fun i _ -> keep.(i)) (Array.to_list js))
  in
  let simulated = run ?jobs ?cache survivors in
  let next = ref 0 in
  Array.mapi
    (fun i j ->
      if keep.(i) then begin
        let _, outcome = simulated.(!next) in
        incr next;
        (j.label, Simulated outcome)
      end
      else begin
        incr pruned_count;
        (j.label, Pruned { lower_bound_s = bound.(i) })
      end)
    js
