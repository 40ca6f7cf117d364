(** Wire format of the compile service: one flat JSON object per line.

    A request names a benchmark generator and its parameters plus the
    operation to run on the resulting design ([compile] or [simulate]);
    [metrics] is a control request the transport answers from the live
    counters without scheduling any work.  The {!key} of a request is
    its content address: every field that can change the answer and none
    that cannot, so identical work is deduplicated and coalesced no
    matter which client (or admission class) asked for it. *)

type kind = Compile | Simulate | Metrics

type t = {
  id : int;  (** client correlation id, echoed in the response *)
  kind : kind;
  app : string;  (** stencil, pagerank, knn or cnn *)
  fpgas : int;
  iters : int;  (** stencil iterations *)
  dataset : string;  (** pagerank dataset *)
  n : int;  (** knn dataset size *)
  d : int;  (** knn feature dimension *)
  cols : int;  (** cnn grid columns *)
  seed : int;
  klass : Tapa_cs_farm.Tenant.slo;
      (** admission class, the farm's SLO vocabulary: [Strict] requests
          are admitted up to the full queue bound, [Best_effort] requests
          are shed earlier under load.  Not part of {!key}. *)
}

val make :
  ?id:int ->
  ?fpgas:int ->
  ?iters:int ->
  ?dataset:string ->
  ?n:int ->
  ?d:int ->
  ?cols:int ->
  ?seed:int ->
  ?klass:Tapa_cs_farm.Tenant.slo ->
  kind:kind ->
  app:string ->
  unit ->
  t

val kind_label : kind -> string

val key : t -> string
(** Canonical content address; excludes [id] and [klass]. *)

val to_line : t -> string
(** One-line JSON encoding (no trailing newline). *)

val of_line : string -> (t, string) result
(** Parse one request line, decoded by {!Tapa_cs_util.Json.of_string}.
    Strict: unknown fields, a value of the wrong type (a count must be an
    integer, or a float with an integral value), malformed JSON or a
    missing [kind] are errors (returned, never raised), so the transport
    can always answer with an explicit error response.  Counts are not
    range-checked here: {!Tapa_cs_apps.Catalog.build} refuses them when
    the request is served. *)

