(** The one JSON codec.  The encoder writes every machine-readable
    output: request and response lines, service metrics, script and farm
    reports, lint diagnostics and the CLI's [--stats-json].  The decoder
    reads every JSON input: NDJSON request lines and the emitted
    [design_report.json] when it is checked.

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

val of_string : string -> (t, string) result
(** Decode one JSON value; whitespace (newlines included) may surround
    any token.  A number without fraction or exponent that fits an
    [int] decodes to [Int], any other number to [Float].  Escapes decode
    to their bytes ([\uXXXX] to UTF-8; a surrogate is an error, so a
    character beyond the BMP must come as raw UTF-8); other bytes inside
    a string pass through unchanged.  Fields keep their order and
    duplicates.  Malformed input, trailing bytes and nesting deeper than
    512 levels are an [Error] naming the byte offset, never an
    exception.

    [to_string] of a decoded [to_string] output gives the same bytes,
    except for a non-integral float whose magnitude, rounded to nine
    digits, lies in \[1e9, 1e15): [%.9g] prints it with an exponent
    ([1.23456789e+09]), which decodes to an integral [Float] that the
    float rule prints with one decimal. *)
