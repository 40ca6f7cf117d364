(* CI gate for the compile service (DESIGN.md §5j).

   Four properties:

   1. Determinism (hard): the scripted replay runs on a virtual clock
      with a fixed virtual worker count, so its report JSON — counters,
      makespan, latency percentiles, embedded cache stats — must be
      byte-identical across repeated runs and across jobs = 1 vs
      jobs = N.  Any divergence means wall-clock or domain-scheduling
      state leaked into an answer.

   2. Coalescing (hard): a round of N identical requests computes
      exactly once — misses = 1, coalesced = N - 1 — and every follower
      gets the byte-identical response the leader got, which is also
      the response an uncoalesced computation produces.

   3. Admission control (hard): a flood of distinct requests beyond the
      configured depth is rejected *explicitly* — every over-depth
      request carries a TCS701 code, best-effort sheds at its earlier
      bound while strict still admits, and the books close:
      received = completed + rejected, misses = admitted distinct.

   4. Warm hits do no work (hard): a cold stream records solve time,
      and the same stream replayed on the warm service is all hits — 0
      misses — and leaves the process-wide floorplan solution, fragment
      and simulation caches exactly as the cold stream left them.  A
      served hit that reaches a solver cache fails here, whatever the
      host's speed.  The wall-clock stage fields stay out of the
      deterministic script report. *)

open Tapa_cs_util
open Tapa_cs_service
module Tenant = Tapa_cs_farm.Tenant
module Partition = Tapa_cs_floorplan.Partition
module Design_sim = Tapa_cs_sim.Design_sim

let script_config =
  { Script.default_config with Script.clients = 4; requests_per_client = 8; distinct = 6; seed = 3 }

let check_determinism () =
  let run pool = Script.report_json (Script.run ?pool script_config) in
  ignore (Gate.repeatable ~label:"script" (fun () -> run None));
  ignore (Gate.jobs_invariant ~label:"script" (fun pool -> run (Some pool)));
  Printf.printf "  determinism: scripted replay byte-identical across repeats and jobs\n"

let check_coalescing () =
  Service.reset_process_caches ();
  let svc = Service.create () in
  let n = 4 in
  let req i = Request.make ~id:i ~iters:8 ~kind:Request.Compile ~app:"stencil" () in
  let verdicts = Service.schedule svc (Array.init n req) in
  let c = Service.counters svc in
  if c.misses <> 1 then Gate.fail "coalescing: %d identical requests computed %d time(s)" n c.misses;
  if c.coalesced <> n - 1 then
    Gate.fail "coalescing: expected %d coalesced follower(s), got %d" (n - 1) c.coalesced;
  (* Followers answer byte-identically to the leader, and both equal an
     uncoalesced computation of the same request. *)
  let body = function
    | Service.Hit reply | Service.Done { reply; _ } -> Service.response_json ~id:0 (Service.Hit reply)
    | Service.Rejected _ -> Gate.fail "coalescing: request rejected below the admission bound"
  in
  let leader = body verdicts.(0) in
  Array.iteri
    (fun i v -> if body v <> leader then Gate.fail "coalescing: follower %d diverged from its leader" i)
    verdicts;
  if body (Service.Hit (Service.compute svc (req 0))) <> leader then
    Gate.fail "coalescing: coalesced response differs from uncoalesced compute";
  Printf.printf "  coalescing: %d identical requests -> 1 compute, %d coalesced, equal bytes\n" n
    (n - 1)

let check_admission () =
  Service.reset_process_caches ();
  let config = { Service.max_depth = 8; best_effort_depth = 4; cache_entries = 64 } in
  let svc = Service.create ~config () in
  let n = 16 in
  let reqs =
    Array.init n (fun u ->
        let klass = if u mod 2 = 0 then Tenant.Strict else Tenant.Best_effort in
        Request.make ~id:u ~iters:(8 + u) ~klass ~kind:Request.Compile ~app:"stencil" ())
  in
  let verdicts = Service.schedule svc reqs in
  let c = Service.counters svc in
  (* Arrival order S B S B …: best-effort sheds once 4 computations are
     pending, strict admits up to 8. *)
  if c.misses <> 8 then Gate.fail "admission: expected 8 admitted computations, got %d" c.misses;
  if c.shed_best_effort <> 6 then
    Gate.fail "admission: expected 6 best-effort sheds, got %d" c.shed_best_effort;
  if c.rejected_strict <> 2 then
    Gate.fail "admission: expected 2 strict rejections, got %d" c.rejected_strict;
  if c.received <> c.completed + c.rejected_strict + c.shed_best_effort then
    Gate.fail "admission: books do not close (received %d, completed %d, rejected %d+%d)"
      c.received c.completed c.rejected_strict c.shed_best_effort;
  (* Every rejection is explicit and TCS-coded; nothing is dropped. *)
  Array.iteri
    (fun i v ->
      match v with
      | Service.Rejected { code; _ } when code <> "TCS701" ->
        Gate.fail "admission: request %d rejected with code %s, want TCS701" i code
      | _ -> ())
    verdicts;
  if Array.length verdicts <> n then Gate.fail "admission: %d requests got %d verdicts" n (Array.length verdicts);
  Printf.printf "  admission: 16 distinct -> 8 admitted, 6 shed, 2 strict-rejected, all TCS701\n"

let check_warm_stream () =
  let stream svc =
    Service.schedule svc
      (Array.init 6 (fun u ->
           Request.make ~id:u ~iters:(8 + (8 * (u mod 3))) ~kind:Request.Compile ~app:"stencil" ()))
  in
  Service.reset_process_caches ();
  let svc = Service.create () in
  ignore (stream svc);
  let misses = (Service.counters svc).misses in
  if misses <> 3 then Gate.fail "cold stream of 3 distinct requests computed %d" misses;
  let stage name =
    match Service.metrics svc with
    | Json.Obj fields -> (
      match List.assoc_opt name fields with
      | Some (Json.Float v) -> v
      | _ -> Gate.fail "metrics lack %s" name)
    | _ -> Gate.fail "metrics are not a JSON object"
  in
  if stage "stage_solve_s" <= 0.0 then Gate.fail "cold stream recorded no solve time";
  if stage "stage_probe_s" < 0.0 || stage "stage_admission_s" < 0.0 then
    Gate.fail "negative stage time";
  let caches () =
    (Partition.cache_stats (), Partition.fragment_stats (), Design_sim.cache_stats ())
  in
  let before = caches () in
  Service.reset_counters svc;
  ignore (stream svc);
  let c = Service.counters svc in
  if c.misses <> 0 || c.hits <> 6 then
    Gate.fail "warm stream: %d hits, %d misses (want 6 hits, 0 misses)" c.hits c.misses;
  if caches () <> before then Gate.fail "a served hit reached the solver caches";
  (* The deterministic script report must not carry stage wall-clock. *)
  if Gate.contains ~sub:"\"stage_" (Script.report_json (Script.run script_config)) then
    Gate.fail "wall-clock stage fields leaked into the script report";
  Printf.printf
    "  warm stream: 6 hits, 0 misses, solver caches untouched; script report carries no stage \
     timings\n"

let run () =
  Exp_common.section "Serve gate: coalescing + admission + determinism (CI)";
  check_determinism ();
  check_coalescing ();
  check_admission ();
  check_warm_stream ();
  Printf.printf "  serve gate: all checks passed\n"
