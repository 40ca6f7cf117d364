(** The one JSON encoder behind every machine-readable output: request
    and response lines, service metrics, script and farm reports, lint
    diagnostics and the CLI's [--stats-json].

    Output is compact (no whitespace) and deterministic.  Two rules are
    owned here and nowhere else:

    - {b strings}: the double quote and the backslash are
      backslash-escaped, newline and tab print as [\n] and [\t], every
      other byte below 0x20 as [\u00XX]; all other bytes pass through
      unchanged.
    - {b floats}: an integral value below 1e15 in magnitude
      prints with one decimal ([3.0]), any other finite value as [%.9g],
      and NaN or an infinity as [null] — never as a bare [nan]/[inf],
      which is not JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields in the given order *)

val to_string : t -> string

val quote : string -> string
(** A string literal, quotes included, under the escaping rule — for
    emitters that keep their own layout. *)
