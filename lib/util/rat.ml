(* Canonical rationals: den > 0, gcd (num, den) = 1.

   Two representations, one per value.  [S] holds the value in native
   ints and is used exactly when |num| < 2^30 and den < 2^30; [L] holds
   every other value in {!Bigint}s.  Floorplanning data is overwhelmingly
   small integers (binary bounds, single-digit coefficients), so nearly
   every value is an [S]: one block, and arithmetic whose cross-products
   stay below 2^60 (a sum of two below 2^61), inside the 63-bit native
   range.  Because the choice is a function of the value and the fraction
   is reduced, equal values have equal representations, and structural
   equality remains value equality. *)

module B = Bigint

type t = S of { n : int; d : int } | L of { n : B.t; d : B.t }

let lim = 1 lsl 30
let fits_small n d = n > -lim && n < lim && d < lim

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)
let icmp (a : int) b = if a < b then -1 else if a > b then 1 else 0

(* Canonical form of a reduced fraction with [d > 0], in native ints. *)
let of_reduced n d = if fits_small n d then S { n; d } else L { n = B.of_int n; d = B.of_int d }

(* Normalize a native-int fraction whose magnitudes stay below 2^62 (so
   negation cannot overflow). *)
let norm_int num den =
  if den = 0 then raise Division_by_zero;
  if num = 0 then S { n = 0; d = 1 }
  else begin
    let num, den = if den < 0 then (-num, -den) else (num, den) in
    let g = gcd_int (Stdlib.abs num) den in
    of_reduced (num / g) (den / g)
  end

(* Canonical form of a reduced bigint fraction with a positive
   denominator. *)
let of_big n d =
  match (B.to_int_opt n, B.to_int_opt d) with
  | Some n, Some d when fits_small n d -> S { n; d }
  | _ -> L { n; d }

let make num den =
  if B.is_zero den then raise Division_by_zero;
  if B.is_zero num then S { n = 0; d = 1 }
  else begin
    let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
    let g = B.gcd num den in
    if B.equal g B.one then of_big num den else of_big (B.div num g) (B.div den g)
  end

let zero = S { n = 0; d = 1 }
let one = S { n = 1; d = 1 }
let minus_one = S { n = -1; d = 1 }

let of_int i = if i > -lim && i < lim then S { n = i; d = 1 } else L { n = B.of_int i; d = B.one }

let of_ints num den =
  if num = min_int || den = min_int then make (B.of_int num) (B.of_int den) else norm_int num den

let of_bigint b = of_big b B.one

let num = function S { n; _ } -> B.of_int n | L { n; _ } -> n
let den = function S { d; _ } -> B.of_int d | L { d; _ } -> d

(* Both parts as bigints: the route of every operation with an [L]
   operand. *)
let big = function S { n; d } -> (B.of_int n, B.of_int d) | L { n; d } -> (n, d)

let sign = function S { n; _ } -> icmp n 0 | L { n; _ } -> B.sign n
let is_zero = function S { n; _ } -> n = 0 | L _ -> false
let is_integer = function S { d; _ } -> d = 1 | L { d; _ } -> B.equal d B.one

let equal a b =
  match (a, b) with
  | S a, S b -> a.n = b.n && a.d = b.d
  | L a, L b -> B.equal a.n b.n && B.equal a.d b.d
  | _ -> false

let compare a b =
  (* a.n/a.d ? b.n/b.d  <=>  a.n*b.d ? b.n*a.d (denominators positive). *)
  match (a, b) with
  | S a, S b -> if a.d = 1 && b.d = 1 then icmp a.n b.n else icmp (a.n * b.d) (b.n * a.d)
  | _ ->
    let an, ad = big a and bn, bd = big b in
    B.compare (B.mul an bd) (B.mul bn ad)

let neg = function S { n; d } -> S { n = -n; d } | L { n; d } -> L { n = B.neg n; d }
let abs x = if sign x < 0 then neg x else x

let inv = function
  | S { n = 0; _ } -> raise Division_by_zero
  | S { n; d } -> if n < 0 then S { n = -d; d = -n } else S { n = d; d = n }
  | L { n; d } -> if B.sign n < 0 then L { n = B.neg d; d = B.neg n } else L { n = d; d = n }

let add a b =
  match (a, b) with
  | S { n = 0; _ }, _ -> b
  | _, S { n = 0; _ } -> a
  | S { n = an; d = 1 }, S { n = bn; d = 1 } -> of_reduced (an + bn) 1
  | S a, S b ->
    (* Knuth's addition (TAOCP 4.5.1): with g = gcd (a.d, b.d), only a
       common factor of g can divide the numerator, so the gcds run on
       the small g instead of the cross-product sums. *)
    let g = gcd_int a.d b.d in
    if g = 1 then of_reduced ((a.n * b.d) + (b.n * a.d)) (a.d * b.d)
    else begin
      let t = (a.n * (b.d / g)) + (b.n * (a.d / g)) in
      if t = 0 then zero
      else
        let g2 = gcd_int (Stdlib.abs t) g in
        of_reduced (t / g2) (a.d / g * (b.d / g2))
    end
  | _ ->
    let an, ad = big a and bn, bd = big b in
    make (B.add (B.mul an bd) (B.mul bn ad)) (B.mul ad bd)

let sub a b = add a (neg b)

let mul a b =
  match (a, b) with
  | S { n = 0; _ }, _ | _, S { n = 0; _ } -> zero
  | S { n = an; d = 1 }, S { n = bn; d = 1 } -> of_reduced (an * bn) 1
  | S a, S b ->
    (* Cancel across before multiplying: the product is then reduced. *)
    let g1 = gcd_int (Stdlib.abs a.n) b.d and g2 = gcd_int (Stdlib.abs b.n) a.d in
    of_reduced (a.n / g1 * (b.n / g2)) (a.d / g2 * (b.d / g1))
  | _ ->
    let an, ad = big a and bn, bd = big b in
    make (B.mul an bn) (B.mul ad bd)

let div a b = mul a (inv b)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Floor division of native ints, [d > 0]. *)
let floor_int n d = if n >= 0 then n / d else -((d - 1 - n) / d)

let floor = function
  | S { n; d } -> B.of_int (floor_int n d)
  | L { n; d } ->
    let q, r = B.divmod n d in
    if B.sign r < 0 then B.sub q B.one else q

let ceil x = B.neg (floor (neg x))

let fractional = function
  | S { d = 1; _ } -> zero
  (* n - floor(n/d)*d shares its gcd with d, so the result is reduced. *)
  | S { n; d } -> S { n = n - (floor_int n d * d); d }
  | x -> sub x (of_bigint (floor x))

(* Exact ints convert exactly, so this rounds as the bigint route does. *)
let to_float = function
  | S { n; d } -> float_of_int n /. float_of_int d
  | L { n; d } -> B.to_float n /. B.to_float d

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
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let ( = ) = equal

let to_string = function
  | S { n; d = 1 } -> string_of_int n
  | S { n; d } -> Printf.sprintf "%d/%d" n d
  | L { n; d } -> if B.equal d B.one then B.to_string n else Printf.sprintf "%s/%s" (B.to_string n) (B.to_string d)

let pp fmt x = Format.pp_print_string fmt (to_string x)
