(* Deterministic replay: a seeded synthetic client stream against the
   service on a virtual clock.

   Real compile latency depends on the host, the pool and the OS
   scheduler, so a benchmark that timestamps with the wall clock can
   never be byte-identical across runs or [--jobs].  Script mode instead
   charges every request a fixed virtual cost by outcome (miss, hit,
   coalesced, rejected) and schedules leader computations onto a fixed
   number of *virtual* workers ([model_workers]) that is independent of
   how many real domains executed the batch.  The request stream itself
   comes from split PRNGs, one per client.  Everything the report prints
   — counters, virtual makespan, latency percentiles — is therefore a
   pure function of (config, seed): byte-identical across repeats and
   across [--jobs].

   The clients are closed-loop: each waits for its response before
   issuing the next request, which is what makes the cold/warm
   requests-per-second numbers comparable across cache states. *)

open Tapa_cs_util
module Tenant = Tapa_cs_farm.Tenant

type config = {
  clients : int;
  requests_per_client : int;
  distinct : int;  (** size of the request universe the clients draw from *)
  seed : int;
  warm : bool;  (** pre-warm the response cache with the whole universe *)
  think_s : float;  (** virtual pause between a response and the next request *)
  service_config : Service.config;
}

(* Virtual parallelism of the cost model. *)
let model_workers = 4

let default_config =
  {
    clients = 4;
    requests_per_client = 8;
    distinct = 6;
    seed = 1;
    warm = false;
    think_s = 0.0;
    service_config = Service.default_config;
  }

(* Fixed virtual costs, seconds.  Chosen so the modelled cold/warm ratio
   is the same order as the measured one (a compile miss is milliseconds
   of solver work, a cache hit is a hash lookup). *)
let cost_compile_miss = 2e-3
let cost_simulate_miss = 1e-3
let cost_hit = 2e-6
let cost_reject = 1e-6

(* The request universe: [distinct] stencil variants covering both
   request kinds, both cluster sizes and both admission classes, so a
   small universe already exercises every scheduling path. *)
let universe_request ~id u =
  let kind = if u land 1 = 0 then Request.Compile else Request.Simulate in
  let fpgas = 1 + (u / 2 mod 2) in
  let iters = 8 + (8 * (u mod 3)) in
  let klass = if u mod 3 = 0 then Tenant.Strict else Tenant.Best_effort in
  Request.make ~id ~fpgas ~iters ~klass ~kind ~app:"stencil" ()

type report = {
  config : config;
  counters : Service.counters;
  virtual_makespan_s : float;
  virtual_requests_per_s : float;
  metrics : Json.t;
}

let run ?pool (cfg : config) : report =
  let cfg =
    {
      cfg with
      clients = max 1 cfg.clients;
      requests_per_client = max 0 cfg.requests_per_client;
      distinct = max 1 cfg.distinct;
    }
  in
  (* Repeat runs must not see each other's process-wide caches. *)
  Service.reset_process_caches ();
  let svc = Service.create ?pool ~config:cfg.service_config () in
  if cfg.warm then begin
    (* Pre-warm outside the measured stream: one round over the whole
       universe fills the response cache (and the floorplan/sim caches
       under it), then the counters restart so the report covers only
       the measured requests. *)
    ignore
      (Service.schedule svc
         (Array.init cfg.distinct (fun u -> universe_request ~id:(-1 - u) u)));
    Service.reset_counters svc
  end;
  let rngs = Array.init cfg.clients (fun c -> Prng.create (cfg.seed + (7919 * c))) in
  let remaining = Array.make cfg.clients cfg.requests_per_client in
  (* ready.(c) = virtual time client c can issue its next request *)
  let ready = Array.make cfg.clients 0.0 in
  let clock = ref 0.0 in
  let next_id = ref 0 in
  let rec rounds () =
    (* Closed loop, batched: every client whose think time has elapsed
       by the round start contributes its next request. *)
    let batch = ref [] in
    for c = cfg.clients - 1 downto 0 do
      if remaining.(c) > 0 && ready.(c) <= !clock then begin
        remaining.(c) <- remaining.(c) - 1;
        let u = Prng.int rngs.(c) cfg.distinct in
        let id = !next_id in
        incr next_id;
        batch := (c, universe_request ~id u) :: !batch
      end
    done;
    match !batch with
    | [] ->
      (* Nobody ready: either done, or advance the clock to the next
         thinker.  [ready] only moves forward, so this terminates. *)
      let next = ref infinity in
      Array.iteri (fun c t -> if remaining.(c) > 0 && t < !next then next := t) ready;
      if !next < infinity then begin
        clock := !next;
        rounds ()
      end
    | batch ->
      let batch = Array.of_list batch in
      let reqs = Array.map snd batch in
      let verdicts = Service.schedule svc reqs in
      (* Virtual execution: greedy assignment of this round's leader
         computations onto [model_workers] virtual workers, in
         computation order.  Followers finish with their leader. *)
      let worker_free = Array.make model_workers !clock in
      let comp_finish = Hashtbl.create 16 in
      Array.iteri
        (fun i v ->
          match v with
          | Service.Done { comp; leader = true; _ } ->
            let cost =
              match (reqs.(i)).Request.kind with
              | Request.Simulate -> cost_simulate_miss
              | Request.Compile | Request.Metrics -> cost_compile_miss
            in
            let w = ref 0 in
            for j = 1 to model_workers - 1 do
              if worker_free.(j) < worker_free.(!w) then w := j
            done;
            let finish = worker_free.(!w) +. cost in
            worker_free.(!w) <- finish;
            Hashtbl.replace comp_finish comp finish
          | _ -> ())
        verdicts;
      let round_end = ref !clock in
      Array.iteri
        (fun i v ->
          let c, _ = batch.(i) in
          let finish =
            match v with
            | Service.Hit _ -> !clock +. cost_hit
            | Service.Rejected _ -> !clock +. cost_reject
            | Service.Done { comp; _ } -> (
              match Hashtbl.find_opt comp_finish comp with
              | Some f -> f
              | None -> !clock +. cost_hit)
          in
          Service.note_latency svc (finish -. !clock);
          ready.(c) <- finish +. cfg.think_s;
          if finish > !round_end then round_end := finish)
        verdicts;
      clock := !round_end;
      rounds ()
  in
  rounds ();
  let counters = Service.counters svc in
  let makespan = !clock in
  let served = counters.Service.received in
  {
    config = cfg;
    counters;
    virtual_makespan_s = makespan;
    virtual_requests_per_s = (if makespan > 0.0 then float_of_int served /. makespan else 0.0);
    metrics = Service.metrics ~pool_fields:false ~timing_fields:false svc;
  }

let report_json (r : report) =
  Json.(
    to_string
      (Obj
         [
           ("mode", String "script");
           ("clients", Int r.config.clients);
           ("requests_per_client", Int r.config.requests_per_client);
           ("distinct", Int r.config.distinct);
           ("seed", Int r.config.seed);
           ("warm", Bool r.config.warm);
           ("model_workers", Int model_workers);
           ("virtual_makespan_s", Float r.virtual_makespan_s);
           ("virtual_requests_per_s", Float r.virtual_requests_per_s);
           ("service", r.metrics);
         ]))
