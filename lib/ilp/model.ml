open Tapa_cs_util

type relation = Le | Ge | Eq
type kind = Continuous | Binary
type sense = Minimize | Maximize

type var_info = { name : string; kind : kind; lb : Rat.t; ub : Rat.t option }

type t = {
  mutable vars : var_info array;
  mutable nvars : int;
  mutable constrs : (string option * Linear.t * relation * Rat.t) list; (* reversed *)
  mutable nconstrs : int;
  mutable obj : sense * Linear.t;
}

let create () = { vars = [||]; nvars = 0; constrs = []; nconstrs = 0; obj = (Minimize, Linear.zero) }

let dummy = { name = ""; kind = Continuous; lb = Rat.zero; ub = None }

let add_var t ?name ?lb ?ub kind =
  let idx = t.nvars in
  let name = match name with Some n -> n | None -> Printf.sprintf "x%d" idx in
  let lb = Option.value lb ~default:Rat.zero in
  if Rat.sign lb < 0 then invalid_arg "Model.add_var: negative lower bound unsupported";
  let ub =
    match (kind, ub) with
    | Binary, None -> Some Rat.one
    | Binary, Some u -> Some (Rat.min u Rat.one)
    | Continuous, u -> u
  in
  (match ub with
  | Some u when Rat.compare u lb < 0 -> invalid_arg "Model.add_var: ub < lb"
  | _ -> ());
  if t.nvars >= Array.length t.vars then begin
    let ncap = Stdlib.max 16 (2 * Array.length t.vars) in
    let nv = Array.make ncap dummy in
    Array.blit t.vars 0 nv 0 t.nvars;
    t.vars <- nv
  end;
  t.vars.(idx) <- { name; kind; lb; ub };
  t.nvars <- t.nvars + 1;
  idx

let add_constraint t ?name expr rel rhs =
  if Linear.max_var expr >= t.nvars then invalid_arg "Model.add_constraint: unknown variable";
  (* Fold the expression's constant into the right-hand side. *)
  let rhs = Rat.sub rhs (Linear.const expr) in
  let expr = Linear.sub expr (Linear.constant (Linear.const expr)) in
  t.constrs <- (name, expr, rel, rhs) :: t.constrs;
  t.nconstrs <- t.nconstrs + 1

let set_objective t sense expr =
  if Linear.max_var expr >= t.nvars then invalid_arg "Model.set_objective: unknown variable";
  t.obj <- (sense, expr)

let num_vars t = t.nvars

let var_info t v =
  if v < 0 || v >= t.nvars then invalid_arg "Model: variable out of range";
  t.vars.(v)

let var_name t v = (var_info t v).name
let var_kind t v = (var_info t v).kind
let var_lb t v = (var_info t v).lb
let var_ub t v = (var_info t v).ub
let constraints t = List.rev_map (fun (_, e, rel, rhs) -> (e, rel, rhs)) t.constrs

let named_constraints t =
  let n = t.nconstrs in
  List.rev
    (List.mapi
       (fun rev_i (name, e, rel, rhs) ->
         (* constrs is reversed, so the i-th added constraint sits at
            rev position nconstrs-1-i. *)
         let i = n - 1 - rev_i in
         let name = match name with Some s -> s | None -> Printf.sprintf "c%d" i in
         (name, e, rel, rhs))
       t.constrs)

let objective t = t.obj

let pp fmt t =
  let names v = var_name t v in
  let sense, obj = t.obj in
  Format.fprintf fmt "%s %a@."
    (match sense with Minimize -> "minimize" | Maximize -> "maximize")
    (Linear.pp ~names) obj;
  Format.fprintf fmt "subject to@.";
  List.iter
    (fun (cname, e, rel, rhs) ->
      Format.fprintf fmt "  %s: %a %s %s@." cname (Linear.pp ~names) e
        (match rel with Le -> "<=" | Ge -> ">=" | Eq -> "=")
        (Rat.to_string rhs))
    (named_constraints t);
  Format.fprintf fmt "vars:@.";
  for v = 0 to t.nvars - 1 do
    let i = t.vars.(v) in
    Format.fprintf fmt "  %s : %s in [%s, %s]@." i.name
      (match i.kind with Binary -> "bin" | Continuous -> "cont")
      (Rat.to_string i.lb)
      (match i.ub with Some u -> Rat.to_string u | None -> "inf")
  done
