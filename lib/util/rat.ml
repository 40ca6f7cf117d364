(* Canonical rationals: den > 0, gcd (num, den) = 1. *)

module B = Bigint

type t = { n : B.t; d : B.t }

(* Native fast path: floorplanning data is overwhelmingly small integers
   (binary bounds, single-digit coefficients), and for those the generic
   route — three array multiplications plus an array-based gcd per
   operation — dominates the exact solver's profile.  When both operands
   fit under [Bigint.to_small]'s 2^30 cap the cross-products stay inside
   the native 63-bit range, so the arithmetic and the gcd run on ints and
   only the canonical result is re-boxed. *)
let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let make_small num den =
  if den = 0 then raise Division_by_zero;
  if num = 0 then { n = B.zero; d = B.one }
  else begin
    let num, den = if den < 0 then (-num, -den) else (num, den) in
    let g = gcd_int (Stdlib.abs num) den in
    { n = B.of_int (num / g); d = B.of_int (den / g) }
  end

let make num den =
  if B.is_zero den then raise Division_by_zero;
  if B.is_zero num then { n = B.zero; d = B.one }
  else begin
    let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
    let g = B.gcd num den in
    if B.equal g B.one then { n = num; d = den }
    else { n = B.div num g; d = B.div den g }
  end

let zero = { n = B.zero; d = B.one }
let one = { n = B.one; d = B.one }
let minus_one = { n = B.minus_one; d = B.one }

let of_int i = { n = B.of_int i; d = B.one }
let of_ints num den = make (B.of_int num) (B.of_int den)
let of_bigint b = { n = b; d = B.one }

let num x = x.n
let den x = x.d

let sign x = B.sign x.n
let is_zero x = B.is_zero x.n
let is_integer x = B.equal x.d B.one

let equal a b = B.equal a.n b.n && B.equal a.d b.d

let compare a b =
  (* a.n/a.d ? b.n/b.d  <=>  a.n*b.d ? b.n*a.d (denominators positive). *)
  match (B.to_small a.n, B.to_small a.d, B.to_small b.n, B.to_small b.d) with
  | Some an, Some ad, Some bn, Some bd -> Stdlib.compare (an * bd) (bn * ad)
  | _ -> B.compare (B.mul a.n b.d) (B.mul b.n a.d)

let neg x = { x with n = B.neg x.n }
let abs x = { x with n = B.abs x.n }

let inv x =
  if is_zero x then raise Division_by_zero;
  if B.sign x.n < 0 then { n = B.neg x.d; d = B.neg x.n } else { n = x.d; d = x.n }

let add a b =
  if is_zero a then b
  else if is_zero b then a
  else
    match (B.to_small a.n, B.to_small a.d, B.to_small b.n, B.to_small b.d) with
    | Some an, Some ad, Some bn, Some bd -> make_small ((an * bd) + (bn * ad)) (ad * bd)
    | _ -> make (B.add (B.mul a.n b.d) (B.mul b.n a.d)) (B.mul a.d b.d)

let sub a b = add a (neg b)

let mul a b =
  if is_zero a || is_zero b then zero
  else
    match (B.to_small a.n, B.to_small a.d, B.to_small b.n, B.to_small b.d) with
    | Some an, Some ad, Some bn, Some bd -> make_small (an * bn) (ad * bd)
    | _ -> make (B.mul a.n b.n) (B.mul a.d b.d)

let div a b = mul a (inv b)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let floor x =
  let q, r = B.divmod x.n x.d in
  if B.sign r < 0 then B.sub q B.one else q

let ceil x = B.neg (floor (neg x))

let fractional x = sub x (of_bigint (floor x))

let to_float x = B.to_float x.n /. B.to_float x.d

let of_float_approx ?(max_den = 1_000_000) f =
  if Float.is_nan f || Float.is_integer f then of_int (int_of_float f)
  else begin
    (* Continued fractions with convergents (h, k). *)
    let neg_input = Stdlib.(f < 0.0) in
    let f = Float.abs f in
    let rec go x h0 k0 h1 k1 steps =
      let a = int_of_float (Float.floor x) in
      let h2 = (a * h1) + h0 and k2 = (a * k1) + k0 in
      if k2 > max_den || steps > 40 then (h1, k1)
      else begin
        let frac = x -. Float.of_int a in
        if Stdlib.(frac < 1e-12) then (h2, k2) else go (1.0 /. frac) h1 k1 h2 k2 (steps + 1)
      end
    in
    (* Convergent seeds: h_{-2}/k_{-2} = 0/1, h_{-1}/k_{-1} = 1/0. *)
    let h, k = go f 0 1 1 0 0 in
    let r = of_ints h (Stdlib.max k 1) in
    if neg_input then neg r else r
  end

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( ~- ) = neg
let ( < ) a b = Stdlib.(compare a b < 0)
let ( <= ) a b = Stdlib.(compare a b <= 0)
let ( > ) a b = Stdlib.(compare a b > 0)
let ( >= ) a b = Stdlib.(compare a b >= 0)
let ( = ) = equal

let to_string x =
  if is_integer x then B.to_string x.n
  else Printf.sprintf "%s/%s" (B.to_string x.n) (B.to_string x.d)

let pp fmt x = Format.pp_print_string fmt (to_string x)
