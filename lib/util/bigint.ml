(* Arbitrary-precision signed integers over little-endian 24-bit digits.

   Invariants: [mag] has no leading (most-significant) zero digit, and
   [sign = 0] iff [mag] is empty.  All digit arithmetic fits in OCaml's
   63-bit native int: products of two 24-bit digits plus carries stay
   below 2^50. *)

type t = { sign : int; mag : int array }

let base_bits = 24
let base = 1 lsl base_bits
let base_mask = base - 1

let zero = { sign = 0; mag = [||] }

let normalize_mag mag =
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let t = top (Array.length mag - 1) in
  if t < 0 then [||]
  else if t = Array.length mag - 1 then mag
  else Array.sub mag 0 (t + 1)

let make sign mag =
  let mag = normalize_mag mag in
  if Array.length mag = 0 then zero else { sign; mag }

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lmax = Stdlib.max la lb in
  let res = Array.make (lmax + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lmax - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    res.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  res.(lmax) <- !carry;
  res

let of_nonneg n =
  (* One digit needs no list: every small-rational result is boxed here. *)
  if n > 0 && n < base then { sign = 1; mag = [| n |] }
  else begin
    let rec digits acc n =
      if n = 0 then acc else digits (n land base_mask :: acc) (n lsr base_bits)
    in
    make 1 (Array.of_list (List.rev (digits [] n)))
  end

let of_int n =
  if n = 0 then zero
  else if n = min_int then
    (* |min_int| overflows negation; build |min_int| = 2 * |min_int / 2|. *)
    (let half = of_nonneg (-(n / 2)) in
     make (-1) (add_mag half.mag half.mag))
  else if n < 0 then { (of_nonneg (-n)) with sign = -1 }
  else of_nonneg n

let sign x = x.sign
let is_zero x = x.sign = 0

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let compare x y =
  if x.sign <> y.sign then Stdlib.compare x.sign y.sign
  else if x.sign >= 0 then cmp_mag x.mag y.mag
  else cmp_mag y.mag x.mag

let equal x y = compare x y = 0

let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

(* Precondition: [a >= b] as magnitudes. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let res = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let s = a.(i) - db - !borrow in
    if s < 0 then begin
      res.(i) <- s + base;
      borrow := 1
    end
    else begin
      res.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  res

let add x y =
  if x.sign = 0 then y
  else if y.sign = 0 then x
  else if x.sign = y.sign then make x.sign (add_mag x.mag y.mag)
  else begin
    match cmp_mag x.mag y.mag with
    | 0 -> zero
    | c when c > 0 -> make x.sign (sub_mag x.mag y.mag)
    | _ -> make y.sign (sub_mag y.mag x.mag)
  end

let sub x y = add x (neg y)

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let res = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let carry = ref 0 in
    let ai = a.(i) in
    if ai <> 0 then begin
      for j = 0 to lb - 1 do
        let cur = res.(i + j) + (ai * b.(j)) + !carry in
        res.(i + j) <- cur land base_mask;
        carry := cur lsr base_bits
      done;
      res.(i + lb) <- res.(i + lb) + !carry
    end
  done;
  res

let mul x y =
  if x.sign = 0 || y.sign = 0 then zero
  else make (x.sign * y.sign) (mul_mag x.mag y.mag)

(* Magnitude division by a single digit [< base]. Returns (quotient, rem). *)
let divmod_mag_digit u d =
  let n = Array.length u in
  let q = Array.make n 0 in
  let rem = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor u.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (q, !rem)

(* Knuth algorithm D on magnitudes; precondition: |u| >= |v|, len v >= 2. *)
let divmod_mag_knuth u v =
  let n = Array.length v in
  let m = Array.length u - n in
  let shift = base / (v.(n - 1) + 1) in
  let scale a len =
    let res = Array.make (len + 1) 0 in
    let carry = ref 0 in
    for i = 0 to len - 1 do
      let cur = (a.(i) * shift) + !carry in
      res.(i) <- cur land base_mask;
      carry := cur lsr base_bits
    done;
    res.(len) <- !carry;
    res
  in
  let u' = scale u (Array.length u) in
  let v' = scale v n in
  (* v' keeps length n after normalization (shift < base). *)
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    let top2 = (u'.(j + n) lsl base_bits) lor u'.(j + n - 1) in
    let qhat = ref (top2 / v'.(n - 1)) in
    let rhat = ref (top2 mod v'.(n - 1)) in
    let adjust = ref true in
    while !adjust do
      if !qhat >= base || !qhat * v'.(n - 2) > (!rhat lsl base_bits) lor u'.(j + n - 2) then begin
        decr qhat;
        rhat := !rhat + v'.(n - 1);
        if !rhat >= base then adjust := false
      end
      else adjust := false
    done;
    (* Multiply and subtract qhat * v' from u'[j .. j+n]. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v'.(i)) + !carry in
      carry := p lsr base_bits;
      let s = u'.(i + j) - (p land base_mask) - !borrow in
      if s < 0 then begin
        u'.(i + j) <- s + base;
        borrow := 1
      end
      else begin
        u'.(i + j) <- s;
        borrow := 0
      end
    done;
    let s = u'.(j + n) - !carry - !borrow in
    if s < 0 then begin
      (* qhat was one too large: add back. *)
      u'.(j + n) <- s + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let t = u'.(i + j) + v'.(i) + !c in
        u'.(i + j) <- t land base_mask;
        c := t lsr base_bits
      done;
      u'.(j + n) <- (u'.(j + n) + !c) land base_mask
    end
    else u'.(j + n) <- s;
    q.(j) <- !qhat
  done;
  let r_scaled = Array.sub u' 0 n in
  let r, r0 = divmod_mag_digit r_scaled shift in
  assert (r0 = 0);
  (q, r)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else if cmp_mag a.mag b.mag < 0 then (zero, a)
  else begin
    let qmag, rmag =
      if Array.length b.mag = 1 then begin
        let q, r = divmod_mag_digit a.mag b.mag.(0) in
        (q, [| r |])
      end
      else divmod_mag_knuth a.mag b.mag
    in
    (make (a.sign * b.sign) qmag, make a.sign rmag)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let one = of_int 1
let minus_one = of_int (-1)

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (rem a b)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let mul_int x n = mul x (of_int n)
let add_int x n = add x (of_int n)

let pow x k =
  if k < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b k = if k = 0 then acc else go (if k land 1 = 1 then mul acc b else acc) (mul b b) (k lsr 1) in
  go one x k

let to_int_opt x =
  (* A native int holds 62 magnitude bits: two 24-bit digits always fit,
     and a third fits when it stays below 2^14. *)
  let n = Array.length x.mag in
  if n > 3 || (n = 3 && x.mag.(2) >= 1 lsl 14) then None
  else begin
    let v = Array.fold_right (fun d acc -> (acc * base) + d) x.mag 0 in
    Some (if x.sign < 0 then -v else v)
  end

let to_int_exn x =
  match to_int_opt x with
  | Some v -> v
  | None -> failwith "Bigint.to_int_exn: out of native int range"

let to_float x =
  let m = Array.fold_right (fun d acc -> (acc *. float_of_int base) +. float_of_int d) x.mag 0.0 in
  if x.sign < 0 then -.m else m

let to_string x =
  if is_zero x then "0"
  else begin
    let chunks = ref [] in
    let cur = ref (abs x) in
    let ten9 = of_int 1_000_000_000 in
    while not (is_zero !cur) do
      let q, r = divmod !cur ten9 in
      chunks := to_int_exn r :: !chunks;
      cur := q
    done;
    let buf = Buffer.create 32 in
    if x.sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
    | [] -> assert false
    | hd :: tl ->
      Buffer.add_string buf (string_of_int hd);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) tl);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then failwith "Bigint.of_string: empty string";
  let sign, start =
    match s.[0] with '-' -> (-1, 1) | '+' -> (1, 1) | _ -> (1, 0)
  in
  if start >= len then failwith "Bigint.of_string: no digits";
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then failwith "Bigint.of_string: invalid digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if sign < 0 then neg !acc else !acc

let pp fmt x = Format.pp_print_string fmt (to_string x)
