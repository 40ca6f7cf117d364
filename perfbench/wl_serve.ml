(* serve_stream: one operation is one request line run through
   Request.of_line, Service.schedule and Service.response_json on one
   long-lived Service.  Traffic is open-loop at a fixed rate; requests
   that fall due together form one scheduling round, as the live server
   batches a wake-up, and each request is timed from when it was due.

   Popularity is Zipf-skewed over a fixed universe of compile and
   simulate variants (warm after set-up, so they hit the response
   cache); every 50th request carries a fresh solver seed and misses
   every cache.  The seed draws the arrival sequence, the offset of the
   fresh requests and the sample checked against an uncached
   computation.  The skew, the universe and the fresh share are
   synthetic choices, not fitted to any recorded request trace.

   A run has two phases on one stream: the nominal rate (latency), then
   a closed loop of back-to-back rounds (throughput at saturation). *)

open Tapa_cs_service
module Prng = Tapa_cs_util.Prng
module Partition = Tapa_cs_floorplan.Partition
module Design_sim = Tapa_cs_sim.Design_sim

(* The closed-loop throughput of this stream (the [ops_per_s] figure)
   when the rate was fixed, on a 2-core x86-64 host: 2001-2194 req/s
   over four seeds.  The nominal rate is a fifth of it, so the open-loop
   phase measures latency well below saturation.  It stays a constant so
   that runs of different code offer the same load. *)
let saturation_at_calibration = 2000.0
let nominal_rate = saturation_at_calibration /. 5.0

(* Every [fresh_every]-th request (2 %) is fresh; the seed sets the
   offset. *)
let fresh_every = 50
let zipf_s = 1.1

(* The nominal phase must end less than this far behind schedule:
   beyond it the backlog is growing and the latencies measure the queue,
   not the service. *)
let limit_s = 0.25

(* Shares of the measured time: the nominal phase and the closed loop,
   whose rounds hold [saturation_batch] requests. *)
let nominal_share = 0.8
let saturation_share = 0.2
let saturation_batch = 16
let max_saturation_rate = 5_000.0

(* One request in a hundred is checked against Service.compute. *)
let check_share = 0.01

(* Most popular first. *)
let universe =
  let open Request in
  List.concat
    [
      List.concat_map
        (fun iters -> List.map (fun fpgas -> make ~kind:Compile ~app:"stencil" ~iters ~fpgas ()) [ 1; 2 ])
        [ 8; 16; 32; 64 ];
      List.concat_map
        (fun iters -> List.map (fun fpgas -> make ~kind:Simulate ~app:"stencil" ~iters ~fpgas ()) [ 2; 4 ])
        [ 16; 64 ];
      [
        make ~kind:Compile ~app:"cnn" ~cols:4 ~fpgas:1 ();
        make ~kind:Compile ~app:"cnn" ~cols:8 ~fpgas:2 ();
        make ~kind:Simulate ~app:"cnn" ~cols:4 ~fpgas:1 ();
        make ~kind:Compile ~app:"knn" ~n:1_000_000 ~d:8 ~fpgas:2 ();
        make ~kind:Simulate ~app:"knn" ~n:1_000_000 ~d:8 ~fpgas:2 ();
        make ~kind:Compile ~app:"pagerank" ~fpgas:2 ();
        make ~kind:Simulate ~app:"pagerank" ~fpgas:2 ();
      ];
    ]

(* Fresh requests re-solve this design under a seed no earlier request
   of the run used, so every miss costs about the same; the k-th fresh
   request of every run uses the same seed. *)
let fresh_base = Request.make ~kind:Request.Compile ~app:"stencil" ~iters:16 ~fpgas:2 ()

(* The request stream: [n] lines, each a Zipf draw over the universe
   or a fresh request. *)
let stream ~seed n =
  let prng = Prng.create seed in
  let offset = Prng.int prng fresh_every in
  let ranked = Array.of_list universe in
  let weights = Array.mapi (fun i _ -> 1.0 /. (float_of_int (i + 1) ** zipf_s)) ranked in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let pick () =
    let x = Prng.float prng total in
    let rec go i acc = if i >= Array.length ranked - 1 || acc +. weights.(i) > x then i else go (i + 1) (acc +. weights.(i)) in
    ranked.(go 0 0.0)
  in
  Array.init n (fun id ->
      let r =
        if (id + offset) mod fresh_every = 0 then { fresh_base with Request.seed = 1_000 + (id / fresh_every) }
        else pick ()
      in
      Request.to_line { r with Request.id; klass = Tapa_cs_farm.Tenant.Strict })

(* Admission bounds far above any round this stream builds: a refused
   request would count as a failure, not as load shedding. *)
let config = { Service.default_config with Service.max_depth = 1 lsl 20; best_effort_depth = 1 lsl 20 }

let reply_of = function
  | Service.Hit reply | Service.Done { reply; _ } -> Some reply
  | Service.Rejected _ -> None

(* Canonical bytes of a reply, independent of how it was served. *)
let body reply = Service.response_json ~id:0 (Service.Hit reply)

(* Span totals of the traced phase. *)
type spans = { mutable parse_s : float; mutable schedule_s : float; mutable response_s : float; mutable round_s : float }

(* One scheduling round over [lines.(lo .. hi - 1)]; [finished i t
   computed] gets each request's completion time and whether this round
   computed its reply.  With [spans] every call is timed. *)
let round ctx svc ?spans ~checks ~finished lines lo hi =
  let span f field =
    match spans with
    | None -> f ()
    | Some s ->
      let r, dt = Bench.timed f in
      field s dt;
      r
  in
  let round_start = Bench.now () in
  let parsed =
    Array.init (hi - lo) (fun i -> span (fun () -> Request.of_line lines.(lo + i)) (fun s dt -> s.parse_s <- s.parse_s +. dt))
  in
  let reqs = Array.of_list (List.filter_map Result.to_option (Array.to_list parsed)) in
  let verdicts = span (fun () -> Service.schedule svc reqs) (fun s dt -> s.schedule_s <- s.schedule_s +. dt) in
  (* Verdicts come back in request order; malformed lines have none. *)
  let v = ref 0 in
  Array.iteri
    (fun i p ->
      Bench.attempt ctx;
      match p with
      | Error e -> Bench.fail ctx "request line %d did not parse: %s" (lo + i) e
      | Ok (r : Request.t) -> (
        let verdict = verdicts.(!v) in
        incr v;
        ignore
          (span (fun () -> Service.response_json ~id:r.Request.id verdict) (fun s dt -> s.response_s <- s.response_s +. dt));
        finished (lo + i) (Bench.now ()) (match verdict with Service.Done _ -> true | _ -> false);
        match reply_of verdict with
        | None -> Bench.fail ctx "request %d refused" r.Request.id
        | Some (Service.Failed { reason }) -> Bench.fail ctx "request %d failed: %s" r.Request.id reason
        | Some reply -> checks r reply))
    parsed;
  Option.iter (fun s -> s.round_s <- s.round_s +. (Bench.now () -. round_start)) spans

type phase = {
  latencies : float array;  (** seconds from due to response, per request served *)
  miss_latencies : float array;  (** the same, requests whose reply was computed *)
  end_lag_s : float;  (** how far behind schedule the last round started *)
  backlog_peak : int;
  rounds : int;
}

(* Spin rather than sleep: a core left idle between requests comes
   back with cold caches, which would time the host, not the service. *)
let wait_until t =
  while Bench.now () < t do
    ()
  done

(* Serve [lines.(first .. first + n - 1)] open-loop at [rate].  A phase
   that falls more than a second behind is abandoned: its remaining
   requests are never sent. *)
let open_loop ctx svc ?spans ~checks ~lines ~first ~rate ~n () =
  let lat = Array.make n nan and misses = ref [] in
  let start = Bench.now () +. 0.001 in
  let next = ref 0 and end_lag = ref 0.0 and backlog_peak = ref 0 and rounds = ref 0 in
  let finished i t computed =
    let l = Stats.latency_from_due ~due:(Stats.due_time ~start ~rate (i - first)) ~finished:t in
    lat.(i - first) <- l;
    if computed then misses := l :: !misses
  in
  while !next < n && !end_lag <= 1.0 do
    let due = Stats.due_time ~start ~rate !next in
    let now = Bench.now () in
    if due > now then wait_until due
    else begin
      let lo, hi = Stats.due_batch ~start ~rate ~first:!next ~n ~now in
      end_lag := now -. due;
      backlog_peak := max !backlog_peak (hi - lo);
      incr rounds;
      round ctx svc ?spans ~checks ~finished lines (first + lo) (first + hi);
      next := hi
    end
  done;
  {
    latencies = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list lat));
    miss_latencies = Array.of_list !misses;
    end_lag_s = !end_lag;
    backlog_peak = !backlog_peak;
    rounds = !rounds;
  }

(* Rounds of [saturation_batch] requests back to back for [seconds]:
   requests completed per second, as the median over windows of
   [window_rounds] consecutive rounds.  A window holds 400 consecutive
   requests, so exactly 8 fresh ones. *)
let window_rounds = 25

let closed_loop ctx svc ~checks ~lines ~first ~seconds =
  let t0 = Bench.now () and next = ref first and round_s = ref [] in
  while Bench.now () -. t0 < seconds && !next < Array.length lines do
    let hi = min (Array.length lines) (!next + saturation_batch) in
    let (), dt = Bench.timed (fun () -> round ctx svc ~checks ~finished:(fun _ _ _ -> ()) lines !next hi) in
    round_s := dt :: !round_s;
    next := hi
  done;
  Stats.median_of_windows ~size:window_rounds
    (fun w -> float_of_int (saturation_batch * Array.length w) /. Array.fold_left ( +. ) 0.0 w)
    (Array.of_list (List.rev !round_s))

let setup ctx ~n =
  Bench.setup ~reps:3 (fun () ->
      let lines = stream ~seed:ctx.Bench.seed n in
      Service.reset_process_caches ();
      let svc = Service.create ~pool:ctx.Bench.pool ~config () in
      (* Warm-up: every universe variant once, so the measured stream
         finds them in the response cache. *)
      let replies = Array.to_list (Service.schedule svc (Array.of_list universe)) in
      Service.reset_counters svc;
      (lines, svc, List.filter_map reply_of replies))

let ms s = s *. 1e3

let run ctx =
  let secs = ctx.Bench.seconds in
  (* The traced run splits the time between an untraced and a traced
     nominal phase, and has no closed loop. *)
  let n_nominal = int_of_float (nominal_rate *. (if ctx.Bench.trace then 0.5 else nominal_share) *. secs) in
  let n = max (2 * n_nominal) (n_nominal + int_of_float (max_saturation_rate *. saturation_share *. secs)) in
  let (lines, svc, warm), setup_s = setup ctx ~n in
  if List.exists (function Service.Failed _ -> true | _ -> false) warm || List.length warm <> List.length universe then
    Bench.fail ctx "warm-up did not answer every universe request";
  (* The replies a seeded sample of requests received, checked after the
     clock stops. *)
  let sample = Prng.create (ctx.Bench.seed + 1) in
  let checked = ref [] in
  let checks r reply = if Prng.float sample 1.0 < check_share then checked := (r, body reply) :: !checked in
  let kept_up p =
    if Stats.backlog_growing ~limit_s p.end_lag_s then
      Bench.fail ctx "nominal phase fell %.0f ms behind schedule" (ms p.end_lag_s)
  in
  let p0, s0 = (Partition.cache_stats (), Design_sim.cache_stats ()) in
  let nominal = open_loop ctx svc ~checks ~lines ~first:0 ~rate:nominal_rate ~n:n_nominal () in
  kept_up nominal;
  let result =
    if not ctx.Bench.trace then begin
      let saturation = closed_loop ctx svc ~checks ~lines ~first:n_nominal ~seconds:(saturation_share *. secs) in
      let p50 = ms (Stats.median nominal.latencies) and p99 = ms (Stats.percentile 99.0 nominal.latencies) in
      (* The mean of the slowest 1 %: with 2 % misses the p99 is one
         order statistic among the misses and the requests queued behind
         them, and it moved by 20-30 % between runs where the median miss
         moved by 12 %. *)
      let tail = ms (Stats.tail_mean 99.0 nominal.latencies) in
      let mean = ms (Array.fold_left ( +. ) 0.0 nominal.latencies /. float_of_int (Array.length nominal.latencies)) in
      let miss_p50 = ms (Stats.median nominal.miss_latencies) in
      Bench.report "requests" (float_of_int (Array.length nominal.latencies)) "count";
      Bench.report "serve_p50_ms" p50 "ms";
      Bench.report "serve_p99_ms" p99 "ms";
      Bench.report "serve_mean_ms" mean "ms";
      Bench.report "serve_miss_p50_ms" miss_p50 "ms";
      Bench.report "serve_p99_beyond" (float_of_int (Stats.beyond 99.0 nominal.latencies)) "count";
      Bench.report "serve_end_lag_ms" (ms nominal.end_lag_s) "ms";
      Bench.report "serve_saturation_rps" saturation "req/s";
      let u55c = (Tapa_cs_device.Board.u55c ()).Tapa_cs_device.Board.max_freq_mhz in
      let freq = function
        | Service.Compiled { freq_mhz; _ } | Service.Simulated { freq_mhz; _ } -> Some (freq_mhz /. u55c)
        | Service.Failed _ -> None
      in
      [
        (* The median request is a hit of 10-40 us whose cost moves by half
           between processes on identical input, and the mean grows with
           the square of the miss time through the requests queued behind
           each miss.  The median miss is linear in the work a request
           costs end to end. *)
        ("op_ms", miss_p50);
        ("tail_ms", tail);
        ("ops_per_s", saturation);
        ("quality", Stats.geomean (List.filter_map freq warm));
        ("setup_s", setup_s);
      ]
    end
    else begin
      (* Traced run: the untraced nominal phase above, then as many
         requests traced; the difference of their medians is the
         tracing overhead. *)
      let spans = { parse_s = 0.0; schedule_s = 0.0; response_s = 0.0; round_s = 0.0 } in
      let t = open_loop ctx svc ~spans ~checks ~lines ~first:n_nominal ~rate:nominal_rate ~n:n_nominal () in
      kept_up t;
      let c = Service.counters svc in
      let (ph, pm), (sh, sm) = (Partition.cache_stats (), Design_sim.cache_stats ()) in
      let frac h m = if h + m > 0 then float_of_int h /. float_of_int (h + m) else 0.0 in
      let served = float_of_int (Array.length t.latencies) and rounds = float_of_int t.rounds in
      [
        ("request.parse_us", spans.parse_s /. served *. 1e6);
        ("service.schedule_ms", ms (spans.schedule_s /. rounds));
        ("service.response_us", spans.response_s /. served *. 1e6);
        ("service.hit_frac", frac c.Service.hits (c.Service.received - c.Service.hits));
        ("service.misses", float_of_int c.Service.misses);
        ("service.coalesced", float_of_int c.Service.coalesced);
        ("service.queue_depth_peak", float_of_int c.Service.queue_depth_peak);
        ("serve.backlog_peak", float_of_int (max nominal.backlog_peak t.backlog_peak));
        ("partition.solution_hit_frac", frac (ph - fst p0) (pm - snd p0));
        ("design_sim.cache_hit_frac", frac (sh - fst s0) (sm - snd s0));
        ("trace.uncovered_ms", ms ((spans.round_s -. spans.parse_s -. spans.schedule_s -. spans.response_s) /. rounds));
        ("trace.overhead_ms", ms (Stats.median t.latencies -. Stats.median nominal.latencies));
      ]
    end
  in
  (* Output check: each sampled reply equals an uncached computation of
     the same request from cold process caches (once per distinct
     request; repeats must have received the same bytes). *)
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun ((r : Request.t), got) ->
      match Hashtbl.find_opt distinct (Request.key r) with
      | Some (_, first) when first <> got -> Bench.fail ctx "request %d: reply differs from an earlier one" r.Request.id
      | Some _ -> ()
      | None -> Hashtbl.replace distinct (Request.key r) (r, got))
    !checked;
  Service.reset_process_caches ();
  let fresh = Service.create ~config () in
  Hashtbl.iter
    (fun _ ((r : Request.t), got) ->
      if body (Service.compute fresh r) <> got then Bench.fail ctx "request %d: reply differs from Service.compute" r.Request.id)
    distinct;
  Bench.report "checked_replies" (float_of_int (List.length !checked)) "count";
  result
