(** Diagnostics core for the static design linter.

    Every finding carries a stable code ([TCS...]), a severity, a location
    anchored into the design (task / FIFO / HBM channel / ILP constraint by
    id and name), a human message and, where known, a fix hint.  Two
    renderers are provided: a pretty one-line form for terminals and a
    JSON-lines form for tooling. *)

type severity = Error | Warning | Info

type location =
  | Design  (** finding about the design as a whole *)
  | Task of { id : int; name : string }
  | Fifo of { id : int; src : string; dst : string }
  | Channel of { task : string; port_index : int; channel : int }
  | Constraint of { name : string }  (** a named ILP constraint or variable *)

type t = {
  code : string;  (** stable code, e.g. ["TCS101"] *)
  severity : severity;
  loc : location;
  message : string;
  hint : string option;  (** how to fix it, when a fix is known *)
}

val make : ?hint:string -> code:string -> severity:severity -> loc:location -> string -> t
(** [make ~code ~severity ~loc message] builds a diagnostic.  The severity
    passed here should normally come from {!default_severity}. *)

val default_severity : string -> severity
(** Registry severity of a code; [Error] for unknown codes (fail safe: an
    unregistered code must never slip through as ignorable). *)

val describe : string -> string
(** One-line meaning of a code from the registry, or ["?"] if unknown. *)

val default_hint : string -> string option
(** The registry fix hint of a code, if any. *)

val registry : (string * severity * string * string) list
(** [(code, severity, meaning, fix hint)] for every code the linter can
    emit — the table rendered into DESIGN.md. *)

val severity_label : severity -> string
val compare_severity : severity -> severity -> int
(** Orders [Error] above [Warning] above [Info]. *)

val errors : t list -> t list
(** The error-severity subset, preserving order. *)

val sort : t list -> t list
(** Stable sort: errors first, then by code. *)

val pp : Format.formatter -> t -> unit
(** One line: [error[TCS301] cluster: LUT demand ... (fix: ...)]. *)

val pp_list : Format.formatter -> t list -> unit
(** All diagnostics, one per line, followed by a severity tally. *)

val to_json : t -> string
(** One JSON object on one line (JSON-lines), schema:
    [{"code":..., "severity":..., "loc":{...}, "message":..., "hint":...}]. *)

val render : ?json:bool -> t list -> string
(** Whole-list rendering used by the CLI; [json] selects JSON-lines. *)
