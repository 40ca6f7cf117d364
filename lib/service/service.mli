(** Compile-as-a-service engine: request coalescing, batched scheduling
    and admission control over the warm caches (DESIGN.md §5j).

    A {!schedule} round answers cache hits immediately, coalesces
    identical misses into one computation, admits the remaining distinct
    computations against a bounded queue (strict requests up to
    [max_depth], best-effort shed at [best_effort_depth]) and runs the
    admitted batch through the shared Domain pool.  Rejections are
    explicit TCS701 responses, never silent drops.  All counters depend
    only on the request sequence and cache state — never on domain
    interleaving — so scripted runs are byte-identical across [--jobs]. *)

type config = {
  max_depth : int;  (** admission bound for strict requests (≥ 1) *)
  best_effort_depth : int;  (** earlier shedding bound, clamped to [max_depth] *)
  cache_entries : int;  (** response-cache capacity ({!Tapa_cs_util.Memo}) *)
}

val default_config : config
(** [{ max_depth = 64; best_effort_depth = 48; cache_entries = 8192 }] *)

type reply =
  | Compiled of {
      freq_mhz : float;
      max_slot_util : float;
      degraded : bool;
      latency_lower_s : float;  (** certified static bound *)
      latency_upper_s : float;
    }
  | Simulated of { freq_mhz : float; latency_s : float; events : int }
  | Failed of { reason : string }
      (** deterministic failures are cached like successes, so a broken
          request does not dodge coalescing and hammer the solver *)

type verdict =
  | Hit of reply  (** answered from the response cache, no work scheduled *)
  | Done of { reply : reply; comp : int; leader : bool }
      (** computed this round; [comp] indexes the round's distinct
          computations, [leader] is false for coalesced followers *)
  | Rejected of { code : string; reason : string }  (** TCS701 *)

type counters = {
  received : int;
  completed : int;  (** hits + computed + coalesced (excludes rejects) *)
  hits : int;
  misses : int;  (** = distinct computations scheduled *)
  coalesced : int;
  rejected_strict : int;
  shed_best_effort : int;
  rounds : int;
  queue_depth_peak : int;
  inflight_peak : int;
}

type t

val create : ?pool:Tapa_cs_util.Pool.t -> ?config:config -> unit -> t
(** The pool is caller-owned and shared across rounds; without one,
    batches run sequentially on the caller. *)

val schedule : t -> Request.t array -> verdict array
(** One scheduling round over a batch of requests; verdicts come back in
    request order.  Metrics-kind requests are treated as ordinary cache
    keys here — transports answer them before scheduling. *)

val handle : t -> Request.t -> verdict
(** [schedule] of a singleton batch. *)

val compute : t -> Request.t -> reply
(** Run one request to a reply, bypassing cache and admission (the
    cache-miss path).  Exposed for tests comparing coalesced against
    uncoalesced answers. *)

val counters : t -> counters

val reset_counters : t -> unit
(** Zero the service counters and recorded latencies without touching
    the response cache (separates a warm-up pass from the measured
    stream). *)

val note_latency : t -> float -> unit
(** Record one request's service latency (wall-clock seconds in live
    mode, virtual seconds in script mode) for the percentile metrics. *)

val note_transport : t -> float -> unit
(** Accrue wall-clock seconds into the transport stage bucket (request
    parsing + response writing, measured by the live server outside
    {!schedule}).  The other three stage buckets — admission, cache
    probe, solve — are accrued inside {!schedule} itself. *)

val latency_percentiles : t -> float * float * float
(** Nearest-rank p50/p95/p99 over latencies recorded so far. *)

val response_json : id:int -> verdict -> string
(** One-line JSON response ([served] is [cache], [computed], [coalesced]
    or the rejection shape with its TCS code). *)

val error_json : id:int -> string -> string
(** Response for a malformed request line. *)

val metrics : ?pool_fields:bool -> ?timing_fields:bool -> t -> Tapa_cs_util.Json.t
(** Live metrics: service counters, response-cache length/evictions,
    pool queue/busy snapshot, latency percentiles, cumulative per-stage
    wall-clock ([stage_transport_s] / [stage_admission_s] /
    [stage_probe_s] / [stage_solve_s]) and the process-wide
    floorplan/simulation cache counters.  [pool_fields:false] omits the
    pool snapshot and [timing_fields:false] the stage wall-clock — the
    two field sets that legitimately vary with [--jobs] and machine
    speed — so scripted reports stay byte-identical. *)

val metrics_json : t -> string
(** Every {!metrics} field, encoded as one line. *)

val reset_process_caches : unit -> unit
(** Clear the process-wide floorplan and simulation caches (scripted
    cold runs; makes repeat runs byte-identical). *)
