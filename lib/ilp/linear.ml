open Tapa_cs_util
module Imap = Map.Make (Int)

type t = { terms : Rat.t Imap.t; const : Rat.t }

let zero = { terms = Imap.empty; const = Rat.zero }
let constant c = { terms = Imap.empty; const = c }

let normalize_term c = if Rat.is_zero c then None else Some c

let var ?(coeff = Rat.one) v =
  if Rat.is_zero coeff then zero else { terms = Imap.singleton v coeff; const = Rat.zero }

let add_term e v c =
  let terms =
    Imap.update v
      (fun existing ->
        let cur = Option.value existing ~default:Rat.zero in
        normalize_term (Rat.add cur c))
      e.terms
  in
  { e with terms }

let add a b =
  let terms =
    Imap.union (fun _ ca cb -> normalize_term (Rat.add ca cb)) a.terms b.terms
  in
  { terms; const = Rat.add a.const b.const }

let scale k e =
  if Rat.is_zero k then zero
  else { terms = Imap.map (fun c -> Rat.mul k c) e.terms; const = Rat.mul k e.const }

let sub a b = add a (scale Rat.minus_one b)

let of_terms ?(const = Rat.zero) l =
  List.fold_left (fun acc (v, c) -> add_term acc v c) { terms = Imap.empty; const } l


let coeff e v = Option.value (Imap.find_opt v e.terms) ~default:Rat.zero
let const e = e.const
let terms e = Imap.bindings e.terms

let eval e value =
  Imap.fold (fun v c acc -> Rat.add acc (Rat.mul c (value v))) e.terms e.const

let max_var e = match Imap.max_binding_opt e.terms with Some (v, _) -> v | None -> -1

let pp ~names fmt e =
  let first = ref true in
  let emit s =
    if !first then first := false else Format.pp_print_string fmt " + ";
    Format.pp_print_string fmt s
  in
  Imap.iter (fun v c -> emit (Printf.sprintf "%s*%s" (Rat.to_string c) (names v))) e.terms;
  if not (Rat.is_zero e.const) || !first then emit (Rat.to_string e.const)
