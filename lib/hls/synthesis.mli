(** Step 2 of TAPA-CS (Fig. 5B): task extraction and parallel synthesis.

    Every task of the graph is "synthesized" to get an accurate resource
    utilization profile before floorplanning.  Like TAPA, identical task
    kinds share one synthesis run — the report records the cache hit rate
    and the emulated wall-clock benefit of synthesizing in parallel. *)

open Tapa_cs_device
open Tapa_cs_graph

type profile = {
  task_id : int;
  resources : Resource.t;
  startup_cycles : float;
  steady_cycles : float;
}

type report = {
  profiles : profile array;  (** indexed by task id *)
  distinct_kinds : int;
  cache_hits : int;
  sequential_runs : int;  (** synthesis jobs a naive flow would run *)
  total_resources : Resource.t;
}

val cache_key : Task.t -> string
(** Canonical digest of everything that determines a task's synthesis
    result: kind, compute shape, memory ports and any explicit resource
    override.  Length-prefixed serialization, so adjacent fields cannot
    alias; floats are rendered exactly ([%h]), so NaN traffic still keys
    consistently (the old structural-tuple key compared NaN with
    polymorphic equality and never matched itself). *)

val run : ?board:Board.t -> ?pool:Tapa_cs_util.Pool.t -> Taskgraph.t -> report
(** Synthesizes one representative task per distinct {!cache_key} — via
    [pool] when given, so independent kinds estimate on separate cores —
    then fills every task's profile from the completed cache.  The report
    (profiles, [distinct_kinds], [cache_hits]) is identical whether or
    not a pool is supplied. *)

val profile_of : report -> int -> profile
