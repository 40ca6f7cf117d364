(* The compile-as-a-service engine: batched scheduling over the warm
   caches.

   A scheduling round takes every request currently waiting and, before
   any work is placed on the Domain pool:

   1. dedupes against the content-addressed response cache (a
      {!Tapa_cs_util.Memo} over {!Request.key}) — hits are answered
      immediately and cost no admission budget;
   2. coalesces identical misses — the first occurrence of a key becomes
      the leader of one computation, every later occurrence a waiter on
      it (single-flight at the queue level; the Memo's own single-flight
      covers races between concurrent schedulers sharing a cache);
   3. admits the remaining distinct computations against a bounded
      queue: best-effort requests are shed once [best_effort_depth]
      computations are pending, strict requests are rejected only at the
      full [max_depth].  A rejection is always an explicit TCS701
      response, never a silent drop.

   Admitted computations then run as one batch through the shared pool;
   each stores its reply in the response cache, so the steady state of a
   hot request mix is cache-bound, not solver-bound.  All counters are
   deterministic: they depend only on the request sequence and the cache
   state, never on domain scheduling (the Memo's single-flight makes
   concurrent same-key hit/miss counts interleaving-independent). *)

open Tapa_cs_util
open Tapa_cs_device
module Tenant = Tapa_cs_farm.Tenant
module Flow = Tapa_cs.Flow
module Compiler = Tapa_cs.Compiler

type config = {
  max_depth : int;
  best_effort_depth : int;
  cache_entries : int;
}

let default_config = { max_depth = 64; best_effort_depth = 48; cache_entries = 8192 }

type reply =
  | Compiled of {
      freq_mhz : float;
      max_slot_util : float;
      degraded : bool;
      latency_lower_s : float;
      latency_upper_s : float;
    }
  | Simulated of { freq_mhz : float; latency_s : float; events : int }
  | Failed of { reason : string }

type verdict =
  | Hit of reply
  | Done of { reply : reply; comp : int; leader : bool }
  | Rejected of { code : string; reason : string }

type counters = {
  received : int;
  completed : int;
  hits : int;
  misses : int;
  coalesced : int;
  rejected_strict : int;
  shed_best_effort : int;
  rounds : int;
  queue_depth_peak : int;
  inflight_peak : int;
}

type stats = {
  mutable received : int;
  mutable completed : int;
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
  mutable rejected_strict : int;
  mutable shed_best_effort : int;
  mutable rounds : int;
  mutable queue_depth_peak : int;
  mutable inflight_peak : int;
  mutable latencies : float list;  (* newest first; sorted at metrics time *)
  mutable nlatencies : int;
  (* Cumulative wall-clock per pipeline stage, for diagnosing where a
     request stream spends its time (e.g. why a warm stream is barely
     faster than a cold one).  Wall-clock, so excluded from the
     deterministic script reports via [metrics ~timing_fields:false]. *)
  mutable transport_s : float;  (* parse + response write, noted by the server *)
  mutable admission_s : float;  (* planning pass minus the cache probes *)
  mutable probe_s : float;  (* response-cache lookups in the planning pass *)
  mutable solve_s : float;  (* the batched compute over distinct requests *)
}

type t = {
  config : config;
  pool : Pool.t option;
  cache : reply Memo.t;
  stats : stats;
}

let create ?pool ?(config = default_config) () =
  let config =
    {
      config with
      max_depth = max config.max_depth 1;
      best_effort_depth = max 1 (min config.best_effort_depth config.max_depth);
    }
  in
  {
    config;
    pool;
    cache = Memo.create ~max_entries:config.cache_entries ();
    stats =
      {
        received = 0;
        completed = 0;
        hits = 0;
        misses = 0;
        coalesced = 0;
        rejected_strict = 0;
        shed_best_effort = 0;
        rounds = 0;
        queue_depth_peak = 0;
        inflight_peak = 0;
        latencies = [];
        nlatencies = 0;
        transport_s = 0.0;
        admission_s = 0.0;
        probe_s = 0.0;
        solve_s = 0.0;
      };
  }

let reset_counters t =
  let s = t.stats in
  s.received <- 0;
  s.completed <- 0;
  s.hits <- 0;
  s.misses <- 0;
  s.coalesced <- 0;
  s.rejected_strict <- 0;
  s.shed_best_effort <- 0;
  s.rounds <- 0;
  s.queue_depth_peak <- 0;
  s.inflight_peak <- 0;
  s.latencies <- [];
  s.nlatencies <- 0;
  s.transport_s <- 0.0;
  s.admission_s <- 0.0;
  s.probe_s <- 0.0;
  s.solve_s <- 0.0

let counters t =
  let s = t.stats in
  {
    received = s.received;
    completed = s.completed;
    hits = s.hits;
    misses = s.misses;
    coalesced = s.coalesced;
    rejected_strict = s.rejected_strict;
    shed_best_effort = s.shed_best_effort;
    rounds = s.rounds;
    queue_depth_peak = s.queue_depth_peak;
    inflight_peak = s.inflight_peak;
  }

(* ------------------------------------------------------------------ *)
(* Request evaluation                                                  *)
(* ------------------------------------------------------------------ *)

(* Run one request to a reply.  Everything deterministic: the compiler
   and simulator are bit-identical across jobs and cache states.  The
   catalog refuses a bad app, dataset or count before any generator
   runs, and a simulation's exceptions are folded into [Failed], so one
   poisoned request can never take the server down. *)
let compute t (r : Request.t) : reply =
  let spec =
    { Tapa_cs_apps.Catalog.app = r.app; fpgas = r.fpgas; iters = r.iters; dataset = r.dataset;
      n = r.n; d = r.d; cols = r.cols }
  in
  match Tapa_cs_apps.Catalog.build spec with
  | Error reason -> Failed { reason }
  | Ok { Tapa_cs_apps.App.graph; _ } -> (
    let cluster = Cluster.make ~board:Board.u55c r.Request.fpgas in
    let options = { Compiler.default_options with Compiler.seed = r.Request.seed; jobs = 1 } in
    match Flow.tapa_cs ~options ?pool:t.pool ~cluster graph with
    | Error reason -> Failed { reason }
    | Ok des -> (
      match r.Request.kind with
      | Request.Simulate -> (
        match Flow.simulate des with
        | res ->
          Simulated
            {
              freq_mhz = des.Flow.freq_mhz;
              latency_s = res.Tapa_cs_sim.Design_sim.latency_s;
              events = res.Tapa_cs_sim.Design_sim.events;
            }
        | exception e -> Failed { reason = Printexc.to_string e })
      | Request.Compile | Request.Metrics ->
        let module SP = Tapa_cs_analysis.Static_perf in
        let static, degraded =
          match des.Flow.compiled with
          | Some c -> (c.Compiler.static, c.Compiler.degraded)
          | None -> (Flow.static_bounds des, false)
        in
        Compiled
          {
            freq_mhz = des.Flow.freq_mhz;
            max_slot_util = des.Flow.max_slot_util;
            degraded;
            latency_lower_s = static.SP.latency_lower_s;
            latency_upper_s = static.SP.latency_upper_s;
          }))

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

type plan =
  | Plan_hit of reply
  | Plan_comp of { comp : int; leader : bool }
  | Plan_reject of { code : string; reason : string }

let schedule t (reqs : Request.t array) : verdict array =
  let st = t.stats in
  let nreq = Array.length reqs in
  if nreq = 0 then [||]
  else begin
    st.rounds <- st.rounds + 1;
    st.received <- st.received + nreq;
    if nreq > st.queue_depth_peak then st.queue_depth_peak <- nreq;
    let pending : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let distinct = ref [] in
    let ndistinct = ref 0 in
    (* Stage accounting: the planning pass is split into cache-probe
       time (the [Memo.find] calls) and everything else (admission /
       coalescing bookkeeping); the batched compute below is the solve
       stage.  Timing never influences any decision — the verdicts are
       a pure function of the request array and cache state. *)
    let plan_start = Unix.gettimeofday () in
    let probe_acc = ref 0.0 in
    let plans =
      Array.map
        (fun (r : Request.t) ->
          let key = Request.key r in
          let probe_start = Unix.gettimeofday () in
          let probed = Memo.find t.cache ~key in
          probe_acc := !probe_acc +. (Unix.gettimeofday () -. probe_start);
          match probed with
          | Some reply ->
            st.hits <- st.hits + 1;
            Plan_hit reply
          | None -> (
            match Hashtbl.find_opt pending key with
            | Some comp ->
              st.coalesced <- st.coalesced + 1;
              Plan_comp { comp; leader = false }
            | None ->
              let depth = !ndistinct in
              let limit =
                match r.Request.klass with
                | Tenant.Strict -> t.config.max_depth
                | Tenant.Best_effort -> t.config.best_effort_depth
              in
              if depth >= limit then begin
                (match r.Request.klass with
                | Tenant.Strict -> st.rejected_strict <- st.rejected_strict + 1
                | Tenant.Best_effort -> st.shed_best_effort <- st.shed_best_effort + 1);
                let d =
                  Tapa_cs_analysis.Lint.admission_reject
                    ~klass:(Tenant.slo_label r.Request.klass) ~depth ~limit
                in
                Plan_reject
                  { code = d.Tapa_cs_analysis.Diagnostic.code;
                    reason = d.Tapa_cs_analysis.Diagnostic.message }
              end
              else begin
                let comp = !ndistinct in
                incr ndistinct;
                Hashtbl.add pending key comp;
                distinct := r :: !distinct;
                st.misses <- st.misses + 1;
                Plan_comp { comp; leader = true }
              end))
        reqs
    in
    st.probe_s <- st.probe_s +. !probe_acc;
    st.admission_s <- st.admission_s +. (Unix.gettimeofday () -. plan_start -. !probe_acc);
    let distinct = Array.of_list (List.rev !distinct) in
    if Array.length distinct > st.inflight_peak then st.inflight_peak <- Array.length distinct;
    (* One batch over the shared pool.  Inside a worker the compiler's
       own parallel stages degrade to sequential, so the batch is the
       parallelism; a batch of one runs on the caller and the compile's
       inner stages use the pool instead. *)
    let solve_start = Unix.gettimeofday () in
    let replies =
      Pool.parallel_map ?pool:t.pool
        (fun (r : Request.t) ->
          fst (Memo.find_or_compute t.cache ~key:(Request.key r) (fun () -> compute t r)))
        distinct
    in
    st.solve_s <- st.solve_s +. (Unix.gettimeofday () -. solve_start);
    Array.map
      (fun plan ->
        match plan with
        | Plan_hit reply ->
          st.completed <- st.completed + 1;
          Hit reply
        | Plan_comp { comp; leader } ->
          st.completed <- st.completed + 1;
          Done { reply = replies.(comp); comp; leader }
        | Plan_reject { code; reason } -> Rejected { code; reason })
      plans
  end

let handle t r =
  match schedule t [| r |] with
  | [| v |] -> v
  | _ -> assert false

let note_latency t dt =
  let st = t.stats in
  st.latencies <- dt :: st.latencies;
  st.nlatencies <- st.nlatencies + 1

let note_transport t dt = t.stats.transport_s <- t.stats.transport_s +. dt

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let reply_fields = function
  | Compiled { freq_mhz; max_slot_util; degraded; latency_lower_s; latency_upper_s } ->
    Json.
      [
        ("status", String "ok");
        ("kind", String "compile");
        ("freq_mhz", Float freq_mhz);
        ("max_slot_util", Float max_slot_util);
        ("degraded", Bool degraded);
        ("latency_lower_s", Float latency_lower_s);
        ("latency_upper_s", Float latency_upper_s);
      ]
  | Simulated { freq_mhz; latency_s; events } ->
    Json.
      [
        ("status", String "ok");
        ("kind", String "simulate");
        ("freq_mhz", Float freq_mhz);
        ("latency_s", Float latency_s);
        ("events", Int events);
      ]
  | Failed { reason } -> Json.[ ("status", String "failed"); ("reason", String reason) ]

let served_label = function
  | Hit _ -> "cache"
  | Done { leader = true; _ } -> "computed"
  | Done { leader = false; _ } -> "coalesced"
  | Rejected _ -> "rejected"

let response_json ~id verdict =
  let fields =
    match verdict with
    | Hit reply | Done { reply; _ } ->
      reply_fields reply @ [ ("served", Json.String (served_label verdict)) ]
    | Rejected { code; reason } ->
      Json.[ ("status", String "rejected"); ("code", String code); ("reason", String reason) ]
  in
  Json.to_string (Obj (("id", Int id) :: fields))

let error_json ~id reason =
  Json.(to_string (Obj [ ("id", Int id); ("status", String "error"); ("reason", String reason) ]))

(* ------------------------------------------------------------------ *)
(* Live metrics                                                        *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile over the recorded latencies. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let latency_percentiles t =
  let a = Array.of_list t.stats.latencies in
  Array.sort compare a;
  (percentile a 50.0, percentile a 95.0, percentile a 99.0)

let metrics ?(pool_fields = true) ?(timing_fields = true) t =
  let s = t.stats in
  let p50, p95, p99 = latency_percentiles t in
  let fp_hits, fp_misses = Tapa_cs_floorplan.Partition.cache_stats () in
  let sim_hits, sim_misses = Tapa_cs_sim.Design_sim.cache_stats () in
  let pool_queue, pool_busy = match t.pool with Some p -> Pool.snapshot p | None -> (0, 0) in
  let pool_workers = match t.pool with Some p -> Pool.size p | None -> 0 in
  Json.(
    Obj
      (List.concat
         [
           [
             ("received", Int s.received);
             ("completed", Int s.completed);
             ("rejected_strict", Int s.rejected_strict);
             ("shed_best_effort", Int s.shed_best_effort);
             ("cache_hits", Int s.hits);
             ("cache_misses", Int s.misses);
             ("coalesced", Int s.coalesced);
             ("cache_entries", Int (Memo.length t.cache));
             ("cache_evictions", Int (Memo.stats t.cache).Memo.evictions);
             ("rounds", Int s.rounds);
             ("queue_depth_peak", Int s.queue_depth_peak);
             ("inflight_peak", Int s.inflight_peak);
           ];
           (if pool_fields then
              [
                ("pool_workers", Int pool_workers);
                ("pool_queue_depth", Int pool_queue);
                ("pool_busy_workers", Int pool_busy);
              ]
            else []);
           [ ("latency_p50_s", Float p50); ("latency_p95_s", Float p95); ("latency_p99_s", Float p99) ];
           (if timing_fields then
              [
                ("stage_transport_s", Float s.transport_s);
                ("stage_admission_s", Float s.admission_s);
                ("stage_probe_s", Float s.probe_s);
                ("stage_solve_s", Float s.solve_s);
              ]
            else []);
           [
             ("floorplan_cache_hits", Int fp_hits);
             ("floorplan_cache_misses", Int fp_misses);
             ("sim_cache_hits", Int sim_hits);
             ("sim_cache_misses", Int sim_misses);
             ("static_pruned", Int (Tapa_cs_sim.Sim_sweep.static_pruned ()));
           ];
         ]))

let metrics_json t = Json.to_string (metrics t)

let reset_process_caches () =
  Tapa_cs_floorplan.Partition.reset_cache ();
  Tapa_cs_sim.Design_sim.reset_cache ()
