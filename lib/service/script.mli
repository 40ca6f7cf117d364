(** Scripted replay: a seeded closed-loop client stream against the
    service on a virtual clock, so throughput and latency reports are
    wall-clock-free and byte-identical across repeats and [--jobs].

    Each client draws requests from a [distinct]-sized universe of
    stencil variants (both kinds, both cluster sizes, both admission
    classes) with its own split PRNG, waits for its response, thinks for
    [think_s] virtual seconds and issues the next.  Leader computations
    are charged fixed virtual costs and packed onto 4 virtual workers
    (the report's [model_workers]) — real [--jobs] only changes how fast
    the run finishes, never what it reports. *)

type config = {
  clients : int;
  requests_per_client : int;
  distinct : int;
  seed : int;
  warm : bool;  (** pre-fill the response cache with the whole universe first *)
  think_s : float;
  service_config : Service.config;
}

val default_config : config
(** 4 clients × 8 requests over a 6-variant universe, cold, no think
    time. *)

type report = {
  config : config;
  counters : Service.counters;
  virtual_makespan_s : float;
  virtual_requests_per_s : float;
  metrics : Tapa_cs_util.Json.t;
      (** the service's {!Service.metrics}, without the pool and
          stage-timing fields *)
}

val run : ?pool:Tapa_cs_util.Pool.t -> config -> report
(** Resets the process-wide floorplan/sim caches first, so repeat runs
    are independent and byte-identical. *)

val report_json : report -> string
(** One-line JSON: script parameters, virtual makespan/throughput and
    the embedded {!Service.metrics}. *)
