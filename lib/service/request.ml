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
(* Wire format: one flat JSON object per line                          *)
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

(* Requests are flat: every field is a string or an integer (an
   integral float also reads as one).  Errors are returned, never
   raised, so a malformed line always turns into an explicit error
   response. *)
let kinds = [ ("compile", Compile); ("simulate", Simulate); ("metrics", Metrics) ]
let classes = [ ("strict", Tenant.Strict); ("best-effort", Tenant.Best_effort) ]

let of_line line =
  let ( let* ) = Result.bind in
  let int k = function
    | Json.Int i -> Ok i
    | Json.Float f when Float.is_integer f -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "field %S wants an integer" k)
  in
  let str k = function
    | Json.String s -> Ok s
    | _ -> Error (Printf.sprintf "field %S wants a string" k)
  in
  let label k table what v =
    let* s = str k v in
    Option.to_result ~none:(Printf.sprintf "unknown %s %S" what s) (List.assoc_opt s table)
  in
  (* Fields apply in order, so a repeated field keeps its last value. *)
  let field acc (k, v) =
    let* r, kind_seen = acc in
    let* r =
      match k with
      | "id" -> let* id = int k v in Ok { r with id }
      | "kind" -> let* kind = label k kinds "kind" v in Ok { r with kind }
      | "app" -> let* app = str k v in Ok { r with app }
      | "fpgas" -> let* f = int k v in Ok { r with fpgas = max 1 f }
      | "iters" -> let* iters = int k v in Ok { r with iters }
      | "dataset" -> let* dataset = str k v in Ok { r with dataset }
      | "n" -> let* n = int k v in Ok { r with n }
      | "d" -> let* d = int k v in Ok { r with d }
      | "cols" -> let* cols = int k v in Ok { r with cols }
      | "seed" -> let* seed = int k v in Ok { r with seed }
      | "class" -> let* klass = label k classes "class" v in Ok { r with klass }
      | other -> Error (Printf.sprintf "unknown field %S" other)
    in
    Ok (r, kind_seen || k = "kind")
  in
  let* json = Json.of_string line in
  let* fields =
    match json with Json.Obj fields -> Ok fields | _ -> Error "a request is one JSON object"
  in
  let* r, kind_seen =
    List.fold_left field (Ok (make ~kind:Compile ~app:"stencil" (), false)) fields
  in
  if kind_seen then Ok r else Error "missing required field \"kind\""
