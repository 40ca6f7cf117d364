module Json = Tapa_cs_util.Json
module Tenant = Tapa_cs_farm.Tenant

type kind = Compile | Simulate | Metrics

type t = {
  id : int;
  kind : kind;
  app : string;
  fpgas : int;
  iters : int;
  dataset : string;
  n : int;
  d : int;
  cols : int;
  seed : int;
  klass : Tenant.slo;
}

let make ?(id = 0) ?(fpgas = 1) ?(iters = 8) ?(dataset = "soc-Slashdot0811") ?(n = 4_000_000)
    ?(d = 2) ?(cols = 8) ?(seed = 1) ?(klass = Tenant.Best_effort) ~kind ~app () =
  { id; kind; app; fpgas = max 1 fpgas; iters; dataset; n; d; cols; seed; klass }

let kind_label = function Compile -> "compile" | Simulate -> "simulate" | Metrics -> "metrics"

(* The content address of a request: every field that can change the
   answer, none that cannot ([id] is correlation, [klass] is admission
   policy).  Two requests with equal keys are served by one
   computation. *)
let key r =
  Printf.sprintf "req-v1|%s|%s|k=%d|iters=%d|ds=%s|n=%d|d=%d|cols=%d|seed=%d" (kind_label r.kind)
    r.app r.fpgas r.iters r.dataset r.n r.d r.cols r.seed

(* ------------------------------------------------------------------ *)
(* JSON codec: newline-delimited flat objects                          *)
(* ------------------------------------------------------------------ *)

let to_line r =
  Json.(
    to_string
      (Obj
         [
           ("id", Int r.id);
           ("kind", String (kind_label r.kind));
           ("app", String r.app);
           ("fpgas", Int r.fpgas);
           ("iters", Int r.iters);
           ("dataset", String r.dataset);
           ("n", Int r.n);
           ("d", Int r.d);
           ("cols", Int r.cols);
           ("seed", Int r.seed);
           ("class", String (Tenant.slo_label r.klass));
         ]))

(* A tiny strict parser for one flat JSON object per line: string,
   number, bool and null values only (requests never nest).  Errors are
   returned, never raised, so a malformed line always turns into an
   explicit error response. *)

exception Bad of string

type value = Vstr of string | Vnum of float | Vbool of bool | Vnull

let parse_flat line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match line.[!pos] with
        | '"' ->
          incr pos;
          Buffer.contents b
        | '\\' ->
          incr pos;
          if !pos >= n then fail "bad escape";
          (match line.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
            if !pos + 4 >= n then fail "bad unicode escape";
            (match int_of_string_opt ("0x" ^ String.sub line (!pos + 1) 4) with
            | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
            | Some _ -> Buffer.add_char b '?'
            | None -> fail "bad unicode escape");
            pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          incr pos;
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ()
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub line !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Vstr (string_lit ())
    | Some 't' -> literal "true" (Vbool true)
    | Some 'f' -> literal "false" (Vbool false)
    | Some 'n' -> literal "null" Vnull
    | Some _ ->
      let start = !pos in
      while
        !pos < n
        && match line.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      do
        incr pos
      done;
      if !pos = start then fail "expected a value"
      else (
        match float_of_string_opt (String.sub line start (!pos - start)) with
        | Some f -> Vnum f
        | None -> fail "bad number")
    | None -> fail "expected a value"
  in
  expect '{';
  skip_ws ();
  let fields =
    if peek () = Some '}' then begin
      incr pos;
      []
    end
    else begin
      let rec members acc =
        skip_ws ();
        let k = string_lit () in
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          members ((k, v) :: acc)
        | Some '}' ->
          incr pos;
          List.rev ((k, v) :: acc)
        | _ -> fail "expected ',' or '}'"
      in
      members []
    end
  in
  skip_ws ();
  if !pos <> n then fail "trailing bytes after the object";
  fields

let of_line line =
  match parse_flat (String.trim line) with
  | exception Bad msg -> Error msg
  | fields -> (
    let r = ref (make ~kind:Compile ~app:"stencil" ()) in
    let kind_seen = ref false in
    let as_int name = function
      | Vnum f when Float.is_integer f -> int_of_float f
      | _ -> raise (Bad (Printf.sprintf "field %S wants an integer" name))
    in
    let as_str name = function
      | Vstr s -> s
      | _ -> raise (Bad (Printf.sprintf "field %S wants a string" name))
    in
    match
      List.iter
        (fun (k, v) ->
          match k with
          | "id" -> r := { !r with id = as_int k v }
          | "kind" -> (
            kind_seen := true;
            match as_str k v with
            | "compile" -> r := { !r with kind = Compile }
            | "simulate" -> r := { !r with kind = Simulate }
            | "metrics" -> r := { !r with kind = Metrics }
            | other -> raise (Bad (Printf.sprintf "unknown kind %S" other)))
          | "app" -> r := { !r with app = as_str k v }
          | "fpgas" -> r := { !r with fpgas = max 1 (as_int k v) }
          | "iters" -> r := { !r with iters = as_int k v }
          | "dataset" -> r := { !r with dataset = as_str k v }
          | "n" -> r := { !r with n = as_int k v }
          | "d" -> r := { !r with d = as_int k v }
          | "cols" -> r := { !r with cols = as_int k v }
          | "seed" -> r := { !r with seed = as_int k v }
          | "class" -> (
            match as_str k v with
            | "strict" -> r := { !r with klass = Tenant.Strict }
            | "best-effort" -> r := { !r with klass = Tenant.Best_effort }
            | other -> raise (Bad (Printf.sprintf "unknown class %S" other)))
          | other -> raise (Bad (Printf.sprintf "unknown field %S" other)))
        fields
    with
    | () -> if !kind_seen then Ok !r else Error "missing required field \"kind\""
    | exception Bad msg -> Error msg)
