type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Fixed precision rather than shortest round-trip: %.17g carries noise
   digits and %h is not JSON; the values encoded here are deterministic
   doubles, so %.9g is reproducible and plenty. *)
let float f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float f)
  | String s -> add_quoted b s
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        add b v)
      l;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_quoted b k;
        Buffer.add_char b ':';
        add b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

let quote s =
  let b = Buffer.create (String.length s + 2) in
  add_quoted b s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)
(* ------------------------------------------------------------------ *)

exception Syntax of int * string

(* Nesting bound: a line of ten million '[' is an error, not ten million
   stack frames. *)
let max_depth = 512

let of_string s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Syntax (!pos, msg)) in
  let at c = !pos < n && s.[!pos] = c in
  let rec skip_ws () =
    match if !pos < n then s.[!pos] else 'x' with
    | ' ' | '\t' | '\r' | '\n' -> incr pos; skip_ws ()
    | _ -> ()
  in
  let expect c = if at c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  (* After "\u": four hex digits, one code point as UTF-8.  A surrogate
     is refused: nothing read here escapes beyond the BMP, and raw UTF-8
     bytes pass through anyway. *)
  let unicode b =
    let hex = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    match int_of_string_opt ("0x" ^ hex) with
    | Some u when String.length hex = 4 && String.for_all is_hex hex && Uchar.is_valid u ->
      pos := !pos + 4;
      Buffer.add_utf_8_uchar b (Uchar.of_int u)
    | _ -> fail "bad unicode escape"
  in
  let string_lit () =
    expect '"';
    let start = !pos in
    while !pos < n && s.[!pos] <> '"' && s.[!pos] <> '\\' do incr pos done;
    if at '"' then (incr pos; String.sub s start (!pos - start - 1))
    else begin
      (* An escape: decode the rest byte by byte. *)
      let b = Buffer.create 64 in
      Buffer.add_substring b s start (!pos - start);
      let rec go () =
        if !pos >= n then fail "unterminated string";
        incr pos;
        match s.[!pos - 1] with
        | '"' -> Buffer.contents b
        | '\\' ->
          if !pos >= n then fail "unterminated string";
          incr pos;
          (match s.[!pos - 1] with
          | 'u' -> unicode b
          | e -> (
            match String.index_opt "\"\\/bfnrt" e with
            | Some i -> Buffer.add_char b "\"\\/\b\012\n\r\t".[i]
            | None ->
              decr pos;
              fail (Printf.sprintf "bad escape '\\%c'" e)));
          go ()
        | c ->
          Buffer.add_char b c;
          go ()
      in
      go ()
    end
  in
  let digits () =
    let first = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
    if !pos = first then fail "bad number"
  in
  (* The JSON number grammar; a literal without fraction or exponent
     that fits an [int] is an [Int]. *)
  let number () =
    let start = !pos in
    if at '-' then incr pos;
    if at '0' then incr pos else digits ();
    let integral = not (at '.' || at 'e' || at 'E') in
    if at '.' then (incr pos; digits ());
    if at 'e' || at 'E' then (
      incr pos;
      if at '+' || at '-' then incr pos;
      digits ());
    let lexeme = String.sub s start (!pos - start) in
    match if integral then int_of_string_opt lexeme else None with
    | Some i -> Int i
    | None -> Float (float_of_string lexeme)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then (pos := !pos + len; v)
    else fail "expected a value"
  in
  (* Comma-separated [elem]s up to [close], the opening bracket read. *)
  let items close elem =
    skip_ws ();
    if at close then (incr pos; [])
    else
      let rec go acc =
        let acc = elem () :: acc in
        skip_ws ();
        if at ',' then (incr pos; go acc)
        else if at close then (incr pos; List.rev acc)
        else fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec value depth =
    skip_ws ();
    if !pos >= n then fail "expected a value";
    match s.[!pos] with
    | '"' -> String (string_lit ())
    | ('{' | '[') when depth >= max_depth -> fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | '{' ->
      incr pos;
      let member () =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        (k, value (depth + 1))
      in
      Obj (items '}' member)
    | '[' ->
      incr pos;
      List (items ']' (fun () -> value (depth + 1)))
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "expected a value"
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos < n then fail "trailing bytes after the value";
    v
  with
  | v -> Ok v
  | exception Syntax (at, msg) -> Error (Printf.sprintf "%s at byte %d" msg at)
