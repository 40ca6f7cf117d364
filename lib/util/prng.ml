(* The splitmix64 state lives unboxed in an 8-byte buffer: a mutable
   [int64] field would box every new state, on each of the annealer's
   two or three draws a step.  The unchecked primitives keep the load
   and store unboxed; the bounds-checked [Bytes.get_int64_le] measured
   slower than a boxed field. *)
type t = bytes

external get : bytes -> int -> int64 = "%caml_bytes_get64u"
external set : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_state s =
  let t = Bytes.create 8 in
  set t 0 s;
  t

let create seed = of_state (Int64.of_int seed)
let golden = 0x9E3779B97F4A7C15L

let[@inline] next t =
  let s = Int64.add (get t 0) golden in
  set t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t = next t

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (r /. 9007199254740992.0) (* 2^53 *)

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let split t = of_state (next t)
