(* Unit and property tests for the tapa_cs_util substrate. *)

open Tapa_cs_util
module B = Bigint
module R = Rat

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Bigint                                                              *)
(* ------------------------------------------------------------------ *)

let test_bigint_basics () =
  check string "zero" "0" (B.to_string B.zero);
  check string "of_int" "42" (B.to_string (B.of_int 42));
  check string "negative" "-17" (B.to_string (B.of_int (-17)));
  check bool "zero is zero" true (B.is_zero B.zero);
  check int "sign pos" 1 (B.sign (B.of_int 5));
  check int "sign neg" (-1) (B.sign (B.of_int (-5)));
  check int "sign zero" 0 (B.sign B.zero)

let test_bigint_min_int () =
  let m = B.of_int min_int in
  check bool "min_int round trip text" true (B.to_string m = string_of_int min_int);
  check bool "abs min_int positive" true (B.sign (B.abs m) = 1);
  check bool "max_int round trip" true (B.to_int_opt (B.of_int max_int) = Some max_int)

let test_bigint_string_round_trip () =
  let cases =
    [ "0"; "1"; "-1"; "999999999"; "1000000000"; "123456789012345678901234567890";
      "-98765432109876543210987654321" ]
  in
  List.iter (fun s -> check string s s (B.to_string (B.of_string s))) cases

let test_bigint_big_mul () =
  let a = B.of_string "123456789012345678901234567890" in
  let b = B.of_string "98765432109876543210" in
  check string "product"
    "12193263113702179522496570642237463801111263526900"
    (B.to_string (B.mul a b))

let test_bigint_divmod_sign_convention () =
  (* Truncated division: r has the sign of a. *)
  let t a b q r =
    let qq, rr = B.divmod (B.of_int a) (B.of_int b) in
    check int (Printf.sprintf "%d/%d q" a b) q (B.to_int_exn qq);
    check int (Printf.sprintf "%d/%d r" a b) r (B.to_int_exn rr)
  in
  t 7 2 3 1;
  t (-7) 2 (-3) (-1);
  t 7 (-2) (-3) 1;
  t (-7) (-2) 3 (-1)

let test_bigint_div_by_zero () =
  Alcotest.check_raises "divmod by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_bigint_pow () =
  check string "2^100" "1267650600228229401496703205376" (B.to_string (B.pow (B.of_int 2) 100));
  check string "x^0" "1" (B.to_string (B.pow (B.of_int 12345) 0))

let test_bigint_gcd () =
  check string "gcd" "6" (B.to_string (B.gcd (B.of_int 54) (B.of_int (-24))));
  check string "gcd with zero" "7" (B.to_string (B.gcd B.zero (B.of_int 7)))

let test_bigint_mixed_sign_chain () =
  (* A long alternating-sign accumulation exercised against int64. *)
  let acc = ref B.zero and reference = ref 0L in
  for i = 1 to 500 do
    let v = if i mod 2 = 0 then i * 1013 else -(i * 977) in
    acc := B.add !acc (B.of_int v);
    reference := Int64.add !reference (Int64.of_int v)
  done;
  check string "chain sum" (Int64.to_string !reference) (B.to_string !acc)

let test_bigint_min_max () =
  let a = B.of_int (-5) and b = B.of_int 3 in
  check string "min" "-5" (B.to_string (B.min a b));
  check string "max" "3" (B.to_string (B.max a b));
  check string "mul_int" "-15" (B.to_string (B.mul_int a 3));
  check string "add_int" "-2" (B.to_string (B.add_int a 3))

let test_bigint_of_string_invalid () =
  Alcotest.check_raises "empty" (Failure "Bigint.of_string: empty string") (fun () ->
      ignore (B.of_string ""));
  Alcotest.check_raises "bad digit" (Failure "Bigint.of_string: invalid digit") (fun () ->
      ignore (B.of_string "12x4"));
  Alcotest.check_raises "lone sign" (Failure "Bigint.of_string: no digits") (fun () ->
      ignore (B.of_string "-"))

let test_bigint_to_float () =
  check (Alcotest.float 1.0) "to_float small" 12345.0 (B.to_float (B.of_int 12345));
  check bool "to_float large magnitude" true
    (let f = B.to_float (B.of_string "1000000000000000000000") in
     f > 0.99e21 && f < 1.01e21)

(* Property tests against native int semantics. *)
let arb_small = QCheck.int_range (-1_000_000_000) 1_000_000_000

let prop_add_matches_int =
  QCheck.Test.make ~name:"bigint add matches int" ~count:500 (QCheck.pair arb_small arb_small)
    (fun (a, b) -> B.to_int_exn (B.add (B.of_int a) (B.of_int b)) = a + b)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bigint mul matches int" ~count:500
    (QCheck.pair (QCheck.int_range (-2_000_000) 2_000_000) (QCheck.int_range (-2_000_000) 2_000_000))
    (fun (a, b) -> B.to_int_exn (B.mul (B.of_int a) (B.of_int b)) = a * b)

let prop_divmod_identity =
  QCheck.Test.make ~name:"bigint divmod identity on large operands" ~count:300
    (QCheck.pair (QCheck.string_gen_of_size (QCheck.Gen.int_range 1 40) QCheck.Gen.numeral)
       (QCheck.string_gen_of_size (QCheck.Gen.int_range 1 20) QCheck.Gen.numeral))
    (fun (sa, sb) ->
      let a = B.of_string ("1" ^ sa) and b = B.of_string ("1" ^ sb) in
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r) && B.compare (B.abs r) (B.abs b) < 0)

let prop_compare_total_order =
  QCheck.Test.make ~name:"bigint compare matches int compare" ~count:500
    (QCheck.pair arb_small arb_small)
    (fun (a, b) -> B.compare (B.of_int a) (B.of_int b) = compare a b)

(* ------------------------------------------------------------------ *)
(* Rat                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rat_normalization () =
  check bool "2/4 = 1/2" true (R.equal (R.of_ints 2 4) (R.of_ints 1 2));
  check bool "neg den normalizes" true (R.equal (R.of_ints 1 (-2)) (R.of_ints (-1) 2));
  check string "print" "-1/2" (R.to_string (R.of_ints 1 (-2)))

let test_rat_arith () =
  check bool "1/3 + 1/6 = 1/2" true (R.equal (R.add (R.of_ints 1 3) (R.of_ints 1 6)) (R.of_ints 1 2));
  check bool "div" true (R.equal (R.div (R.of_ints 1 3) (R.of_ints 1 6)) (R.of_int 2));
  check bool "inv" true (R.equal (R.inv (R.of_ints (-2) 3)) (R.of_ints (-3) 2))

let test_rat_floor_ceil () =
  check string "floor -7/2" "-4" (B.to_string (R.floor (R.of_ints (-7) 2)));
  check string "ceil -7/2" "-3" (B.to_string (R.ceil (R.of_ints (-7) 2)));
  check string "floor 7/2" "3" (B.to_string (R.floor (R.of_ints 7 2)));
  check bool "fractional in [0,1)" true
    (let f = R.fractional (R.of_ints (-7) 2) in
     R.compare f R.zero >= 0 && R.compare f R.one < 0)

let test_rat_of_float_approx () =
  check bool "0.5" true (R.equal (R.of_float_approx 0.5) (R.of_ints 1 2));
  check bool "integral" true (R.equal (R.of_float_approx 3.0) (R.of_int 3));
  check bool "-0.25" true (R.equal (R.of_float_approx (-0.25)) (R.of_ints (-1) 4));
  check bool "1/3" true (R.equal (R.of_float_approx (1.0 /. 3.0)) (R.of_ints 1 3));
  check bool "12.5" true (R.equal (R.of_float_approx 12.5) (R.of_ints 25 2))

let arb_rat =
  QCheck.map
    (fun (n, d) -> R.of_ints n (if d = 0 then 1 else d))
    (QCheck.pair (QCheck.int_range (-10000) 10000) (QCheck.int_range 1 10000))

let prop_rat_field_laws =
  QCheck.Test.make ~name:"rat field laws" ~count:300 (QCheck.triple arb_rat arb_rat arb_rat)
    (fun (a, b, c) ->
      R.equal (R.add a b) (R.add b a)
      && R.equal (R.mul a b) (R.mul b a)
      && R.equal (R.add (R.add a b) c) (R.add a (R.add b c))
      && R.equal (R.mul a (R.add b c)) (R.add (R.mul a b) (R.mul a c))
      && R.equal (R.sub a a) R.zero
      && (R.is_zero a || R.equal (R.mul a (R.inv a)) R.one))

let prop_rat_floor_bound =
  QCheck.Test.make ~name:"floor(x) <= x < floor(x)+1" ~count:300 arb_rat (fun x ->
      let f = R.of_bigint (R.floor x) in
      R.compare f x <= 0 && R.compare x (R.add f R.one) < 0)

let prop_rat_compare_antisym =
  QCheck.Test.make ~name:"rat compare antisymmetric" ~count:300 (QCheck.pair arb_rat arb_rat)
    (fun (a, b) -> R.compare a b = -R.compare b a)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check bool "same stream" true (Prng.next_int64 a = Prng.next_int64 b)
  done

let test_prng_bounds () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    check bool "in range" true (v >= 0 && v < 17);
    let w = Prng.int_in rng (-5) 5 in
    check bool "int_in range" true (w >= -5 && w <= 5);
    let f = Prng.float rng 2.0 in
    check bool "float range" true (f >= 0.0 && f < 2.0)
  done

let test_prng_shuffle_permutes () =
  let rng = Prng.create 11 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check bool "is permutation" true (sorted = Array.init 50 Fun.id)

(* ------------------------------------------------------------------ *)
(* Fourheap (the coalesced engine's event queue and the B&B frontier)   *)
(* ------------------------------------------------------------------ *)

let test_heap_sorts () =
  let h = Fourheap.create ~cmp:compare in
  let rng = Prng.create 5 in
  let input = List.init 200 (fun _ -> Prng.int rng 1000) in
  List.iter (Fourheap.push h) input;
  check int "length" 200 (Fourheap.length h);
  let rec drain acc = match Fourheap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  let out = drain [] in
  check bool "sorted ascending" true (out = List.sort compare input);
  check bool "empty after drain" true (Fourheap.is_empty h)

let test_heap_pop_empty () =
  let h = Fourheap.create ~cmp:compare in
  check bool "pop empty" true (Fourheap.pop h = None);
  Alcotest.check_raises "pop_exn empty" Not_found (fun () -> ignore (Fourheap.pop_exn h : int))

let test_heap_peek () =
  let h = Fourheap.create ~cmp:compare in
  Fourheap.push h 5;
  Fourheap.push h 2;
  Fourheap.push h 9;
  check bool "peek is min" true (Fourheap.peek h = Some 2);
  check int "peek does not remove" 3 (Fourheap.length h)

let test_fourheap_ties_by_secondary () =
  (* The engine orders events by (time, seq); the heap must honour the
     full comparator, including the tie-break component. *)
  let cmp (ta, sa) (tb, sb) =
    if compare ta tb <> 0 then compare ta tb else compare sa sb
  in
  let h = Fourheap.create ~cmp in
  List.iter (Fourheap.push h) [ (1.0, 3); (1.0, 1); (0.5, 2); (1.0, 2) ];
  let rec drain acc = match Fourheap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  check bool "ties drain in secondary order" true
    (drain [] = [ (0.5, 2); (1.0, 1); (1.0, 2); (1.0, 3) ])

(* Interleaved push/pop against a sorted-list model: peek, pop and
   length must agree with the model after every single operation, not
   just on a final drain. *)
let prop_fourheap_matches_model =
  QCheck.Test.make ~name:"fourheap matches sorted-list model under interleaving" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 0 300) (QCheck.pair QCheck.bool QCheck.small_int))
    (fun ops ->
      let h = Fourheap.create ~cmp:Int.compare in
      let model = ref [] in
      List.for_all
        (fun (is_pop, v) ->
          if is_pop then begin
            let expect =
              match !model with
              | [] -> None
              | x :: tl ->
                model := tl;
                Some x
            in
            Fourheap.pop h = expect
          end
          else begin
            Fourheap.push h v;
            model := List.merge Int.compare [ v ] !model;
            Fourheap.peek h = Some (List.hd !model) && Fourheap.length h = List.length !model
          end)
        ops)

(* ------------------------------------------------------------------ *)
(* Union_find                                                          *)
(* ------------------------------------------------------------------ *)

let test_union_find () =
  let uf = Union_find.create 6 in
  check int "initial components" 6 (Union_find.count uf);
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  check int "after two unions" 4 (Union_find.count uf);
  check bool "same 0 1" true (Union_find.same uf 0 1);
  check bool "not same 0 2" false (Union_find.same uf 0 2);
  Union_find.union uf 1 2;
  check bool "transitively same" true (Union_find.same uf 0 3);
  Union_find.union uf 0 3;
  check int "idempotent union" 3 (Union_find.count uf)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "10"; "20" ] ] in
  check bool "contains header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  check bool "has 4+ lines" true (List.length lines >= 4)

let test_table_formatting () =
  check string "fmt_float trims zeros" "2.5" (Table.fmt_float 2.50);
  check string "fmt_float integral" "3" (Table.fmt_float 3.0);
  check string "speedup" "2.64x" (Table.fmt_speedup 2.64);
  check string "pct" "42.3%" (Table.fmt_pct 0.423);
  check string "MB" "144.22MB" (Table.fmt_bytes (144.22 *. 1024. *. 1024.));
  check string "GB" "1.13GB" (Table.fmt_bytes (1.13 *. 1024. *. 1024. *. 1024.))

let test_table_pads_short_rows () =
  let s = Table.render ~header:[ "x"; "y"; "z" ] [ [ "only" ] ] in
  check bool "renders without exception" true (String.length s > 0)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_matches_sequential () =
  (* Real worker domains (explicit ~domains so a 1-core host still
     exercises the concurrent path), index-ordered assembly. *)
  let input = Array.init 100 Fun.id in
  let expected = Array.map (fun i -> i * i) input in
  let pool = Pool.create ~domains:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  check int "pool size" 3 (Pool.size pool);
  let got = Pool.parallel_map ~pool (fun i -> i * i) input in
  check bool "same as Array.map" true (got = expected);
  (* A pool is reusable across batches. *)
  let got2 = Pool.parallel_map ~pool (fun i -> i + 1) input in
  check bool "second batch" true (got2 = Array.map succ input)

let test_pool_exception_propagates () =
  let pool = Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (match Pool.parallel_map ~pool (fun i -> if i = 17 then failwith "boom" else i) (Array.init 40 Fun.id) with
  | _ -> Alcotest.fail "expected the worker exception to re-raise"
  | exception Failure msg -> check string "exception payload" "boom" msg);
  (* The pool survives a failing batch. *)
  let ok = Pool.parallel_map ~pool Fun.id (Array.init 10 Fun.id) in
  check bool "pool alive after failure" true (ok = Array.init 10 Fun.id)

let test_pool_nested_and_shutdown () =
  let pool = Pool.create ~domains:2 () in
  (* Nested parallel_map inside a worker degrades to sequential instead of
     deadlocking on the saturated pool. *)
  let got =
    Pool.parallel_map ~pool
      (fun i -> Array.fold_left ( + ) 0 (Pool.parallel_map (fun j -> i + j) (Array.init 5 Fun.id)))
      (Array.init 8 Fun.id)
  in
  check bool "nested map correct" true (got = Array.init 8 (fun i -> (5 * i) + 10));
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* After shutdown the pool runs batches sequentially on the caller. *)
  let seq = Pool.parallel_map ~pool (fun i -> i * 2) (Array.init 6 Fun.id) in
  check bool "post-shutdown sequential" true (seq = Array.init 6 (fun i -> i * 2))

let test_pool_failing_batch_drains () =
  (* Documented behaviour: a worker raising mid-batch does not cancel the
     batch — every element is still evaluated, and the first exception
     observed re-raises in the caller only after the drain. *)
  let n = 64 in
  let evaluated = Atomic.make 0 in
  let pool = Pool.create ~domains:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (match
     Pool.parallel_map ~pool
       (fun i ->
         Atomic.incr evaluated;
         if i mod 16 = 3 then failwith (Printf.sprintf "boom-%d" i) else i)
       (Array.init n Fun.id)
   with
  | _ -> Alcotest.fail "expected the batch failure to re-raise"
  | exception Failure msg ->
    check bool "one of the raised exceptions wins" true
      (List.mem msg [ "boom-3"; "boom-19"; "boom-35"; "boom-51" ]));
  check int "every element still evaluated" n (Atomic.get evaluated);
  (* The drained pool runs the next batch normally. *)
  let ok = Pool.parallel_map ~pool succ (Array.init 10 Fun.id) in
  check bool "next batch clean" true (ok = Array.init 10 succ)

let test_pool_snapshot () =
  (* The queue/busy snapshot is observability-only: idle pools read
     (0, 0), and a batch in flight shows busy workers without perturbing
     the result. *)
  let pool = Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  check bool "idle snapshot" true (Pool.snapshot pool = (0, 0));
  (* Alcotest's [check] is not domain-safe: the mapped closures only
     record their verdicts in atomics, asserted once the batch is done. *)
  let seen_busy = Atomic.make 0 and insane = Atomic.make 0 in
  let got =
    Pool.parallel_map ~pool
      (fun i ->
        let queued, busy = Pool.snapshot pool in
        if busy > 0 then Atomic.incr seen_busy;
        (* 2 workers + the helping caller bound the busy count. *)
        if not (queued >= 0 && busy >= 1 && busy <= 3) then Atomic.incr insane;
        i * 3)
      (Array.init 64 Fun.id)
  in
  check bool "snapshot sane mid-batch" true (Atomic.get insane = 0);
  check bool "result unperturbed" true (got = Array.init 64 (fun i -> i * 3));
  (* Every mapped closure at least observes itself as busy. *)
  check int "busy observed by every item" 64 (Atomic.get seen_busy);
  check bool "drained snapshot" true (Pool.snapshot pool = (0, 0))

let test_pool_small_arrays () =
  check bool "empty" true (Pool.parallel_map Fun.id [||] = [||]);
  check bool "singleton" true (Pool.parallel_map succ [| 41 |] = [| 42 |]);
  check bool "no pool" true (Pool.parallel_map succ (Array.init 20 Fun.id) = Array.init 20 succ);
  check bool "jobs floor" true (Pool.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Json: the shared encoder                                             *)
(* ------------------------------------------------------------------ *)

let test_json_rules () =
  let s = Alcotest.string in
  check s "escaping" {|"q\" b\\ n\n t\t c\u0001 \u001f ~"|}
    (Json.quote "q\" b\\ n\n t\t c\001 \031 ~");
  check s "integral floats" "[3.0,-0.0,1e+15]"
    Json.(to_string (List [ Float 3.0; Float (-0.0); Float 1e15 ]));
  check s "other floats" "[0.1,1.23456789e-07]"
    Json.(to_string (List [ Float 0.1; Float 1.23456789e-7 ]));
  check s "non-finite floats" "[null,null,null]"
    Json.(to_string (List [ Float Float.nan; Float Float.infinity; Float Float.neg_infinity ]));
  check s "compact nesting" {|{"a":[1,true,null],"b":{},"c":"x"}|}
    Json.(to_string (Obj [ ("a", List [ Int 1; Bool true; Null ]); ("b", Obj []); ("c", String "x") ]))

(* Floats whose [%.9g] rendering is integral below 1e15 re-read as an
   integral Float, which prints with one decimal (json.mli documents the
   exception); the round-trip property covers every other finite float. *)
let exponent_band f =
  (not (Float.is_integer f))
  &&
  let r = Float.abs (float_of_string (Printf.sprintf "%.9g" f)) in
  r >= 1e9 && r < 1e15

let gen_json =
  let open QCheck.Gen in
  let finite =
    map
      (fun f -> if Float.is_finite f && not (exponent_band f) then f else 0.5)
      (oneof [ float; map float_of_int int; map Int64.float_of_bits ui64 ])
  in
  let bytes = string_size ~gen:char (int_bound 8) in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float f) finite;
               map (fun s -> Json.String s) bytes;
             ]
         in
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 5) (self (n / 3))));
               (1, map (fun l -> Json.Obj l) (list_size (int_bound 5) (pair bytes (self (n / 3)))));
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json decode then encode is the identity on encoder output" ~count:500
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v ->
      let s = Json.to_string v in
      match Json.of_string s with
      | Ok v' -> Json.to_string v' = s
      | Error e -> QCheck.Test.fail_reportf "%s" e)

let test_json_decode () =
  let decodes what input want =
    match Json.of_string input with
    | Ok v -> check bool what true (v = want)
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  decodes "pretty-printed, newlines included"
    "{\n  \"a\": [1, -2.5e1,\n    \"x\"],\r\n\t\"b\": {\"c\": null, \"d\": true}\n}\n"
    Json.(Obj [ ("a", List [ Int 1; Float (-25.0); String "x" ]); ("b", Obj [ ("c", Null); ("d", Bool true) ]) ]);
  decodes "integers and floats" "[3,3.0,-0,1e3]" Json.(List [ Int 3; Float 3.0; Int 0; Float 1000.0 ]);
  decodes "escapes to UTF-8" {|"\u00e9\/\t\u0001"|} (Json.String "\xc3\xa9/\t\001");
  decodes "the exponent band re-reads as an integral float"
    (Json.to_string (Json.Float 1234567890.5)) (Json.Float 1234567890.0);
  let names_offset e =
    let tag = " at byte " in
    let k = String.length tag in
    let rec go i = i + k <= String.length e && (String.sub e i k = tag || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (what, input) ->
      match Json.of_string input with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error e -> check bool (what ^ " names a byte offset") true (names_offset e))
    [
      ("trailing bytes", "{} x");
      ("unterminated string", {|{"a":"b|});
      ("bad escape", {|"a\qb"|});
      ("a surrogate escape", {|"\ud83d\ude00"|});
      ("bare nan", "nan");
      ("empty input", "");
      ("a leading zero", "01");
      ("deep nesting", String.make 600 '[');
    ]

(* ------------------------------------------------------------------ *)
(* Memo: content-addressed memoization                                  *)
(* ------------------------------------------------------------------ *)

let test_memo_basics () =
  let m = Memo.create () in
  let computes = ref 0 in
  let f () = incr computes; 42 in
  let v1, hit1 = Memo.find_or_compute m ~key:"a" f in
  let v2, hit2 = Memo.find_or_compute m ~key:"a" f in
  check int "value" 42 v1;
  check int "cached value" 42 v2;
  check bool "first is a miss" false hit1;
  check bool "second is a hit" true hit2;
  check int "computed once" 1 !computes;
  check int "length" 1 (Memo.length m);
  let s = Memo.stats m in
  check int "one hit" 1 s.Memo.hits;
  check int "one miss" 1 s.Memo.misses;
  check int "no evictions yet" 0 s.Memo.evictions;
  check int "generation sizes cover length" (Memo.length m)
    (s.Memo.young_entries + s.Memo.old_entries);
  check bool "find present" true (Memo.find m ~key:"a" = Some 42);
  check bool "find absent" true (Memo.find m ~key:"b" = None);
  let s = Memo.stats m in
  check bool "find counts toward stats" true (s.Memo.hits = 2 && s.Memo.misses = 2);
  Memo.reset m;
  check int "reset empties" 0 (Memo.length m);
  let s = Memo.stats m in
  check bool "reset clears counters" true
    (s.Memo.hits = 0 && s.Memo.misses = 0 && s.Memo.evictions = 0
    && s.Memo.young_entries = 0 && s.Memo.old_entries = 0)

let test_memo_capacity () =
  let m = Memo.create ~max_entries:4 () in
  for i = 0 to 9 do
    ignore (Memo.find_or_compute m ~key:(string_of_int i) (fun () -> i))
  done;
  (* Overflow rotates the young generation into the old one and drops
     the previous old generation; it must never exceed max_entries. *)
  check bool "bounded" true (Memo.length m <= 4)

let test_memo_single_flight () =
  (* N domains race the same absent key.  Single-flight means exactly
     one computes (the leader); every waiter blocks for the leader's
     value instead of duplicating the work, and counts as a hit — so
     hit/miss totals are interleaving-independent. *)
  let m = Memo.create () in
  let computes = Atomic.make 0 in
  let release = Atomic.make false in
  let domains = 6 in
  let worker () =
    Memo.find_or_compute m ~key:"heavy" (fun () ->
        Atomic.incr computes;
        while not (Atomic.get release) do Domain.cpu_relax () done;
        1234)
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  (* Let every waiter pile up behind the leader before releasing it. *)
  while Atomic.get computes = 0 do Domain.cpu_relax () done;
  Unix.sleepf 0.02;
  Atomic.set release true;
  let results = List.map Domain.join ds in
  check int "computed exactly once" 1 (Atomic.get computes);
  List.iter (fun (v, _) -> check int "every racer got the value" 1234 v) results;
  let s = Memo.stats m in
  check int "one miss (the leader)" 1 s.Memo.misses;
  check int "every other racer is a hit" (domains - 1) s.Memo.hits;
  check int "counters close" domains (s.Memo.hits + s.Memo.misses)

let test_memo_single_flight_failure () =
  (* A leader that raises must not poison the key: waiters retry, and a
     later computation can succeed. *)
  let m = Memo.create () in
  let attempts = ref 0 in
  (try ignore (Memo.find_or_compute m ~key:"k" (fun () -> incr attempts; failwith "boom"))
   with Failure _ -> ());
  let v, hit = Memo.find_or_compute m ~key:"k" (fun () -> incr attempts; 7) in
  check int "value after a failed first attempt" 7 v;
  check bool "recomputation is a miss" false hit;
  check int "both attempts ran" 2 !attempts

let test_memo_two_generations () =
  (* A key that stays hot survives generation rotation by promotion;
     untouched keys age out.  Re-computation after eviction returns the
     identical value (cold/warm bit-identity). *)
  let m = Memo.create ~max_entries:8 () in
  let compute k () = k * 11 in
  ignore (Memo.find_or_compute m ~key:"hot" (fun () -> 999));
  for i = 0 to 30 do
    ignore (Memo.find_or_compute m ~key:(string_of_int i) (compute i));
    (* Touch the hot key every insert so each lookup either hits young
       or promotes it out of the old generation before rotation. *)
    let v, hit = Memo.find_or_compute m ~key:"hot" (fun () -> 999) in
    check bool "hot key never recomputed" true hit;
    check int "hot value stable" 999 v
  done;
  check bool "rotation happened" true ((Memo.stats m).Memo.evictions > 0);
  check bool "still bounded" true (Memo.length m <= 8);
  (* Key 0 is long gone; recomputing it gives the same answer. *)
  let v, hit = Memo.find_or_compute m ~key:"0" (compute 0) in
  check bool "cold key aged out" false hit;
  check int "recompute identical" 0 v;
  Memo.reset m;
  check int "reset clears evictions" 0 (Memo.stats m).Memo.evictions

let test_memo_concurrent () =
  (* Hammer one table from several domains: every computed value must be
     correct, and hits + misses must equal the number of lookups — no
     update may be lost to a race. *)
  let m = Memo.create () in
  let domains = 4 and per_domain = 500 and keyspace = 40 in
  let worker seed () =
    let rng = Prng.create seed in
    for _ = 1 to per_domain do
      let k = Prng.int rng keyspace in
      let v, _ = Memo.find_or_compute m ~key:(string_of_int k) (fun () -> k * 7) in
      assert (v = k * 7)
    done
  in
  let ds = List.init domains (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join ds;
  let s = Memo.stats m in
  check int "every lookup accounted" (domains * per_domain) (s.Memo.hits + s.Memo.misses);
  check bool "table bounded by keyspace" true (Memo.length m <= keyspace);
  (* Every stored value is right regardless of which domain stored it. *)
  for k = 0 to keyspace - 1 do
    match Memo.find m ~key:(string_of_int k) with
    | Some v -> check int "stored value" (k * 7) v
    | None -> ()
  done

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_add_matches_int; prop_mul_matches_int; prop_divmod_identity; prop_compare_total_order;
    prop_rat_field_laws; prop_rat_compare_antisym; prop_rat_floor_bound;
    prop_fourheap_matches_model; prop_json_roundtrip ]

let () =
  Alcotest.run "util"
    [
      ( "bigint",
        [
          Alcotest.test_case "basics" `Quick test_bigint_basics;
          Alcotest.test_case "min_int" `Quick test_bigint_min_int;
          Alcotest.test_case "string round trip" `Quick test_bigint_string_round_trip;
          Alcotest.test_case "big multiplication" `Quick test_bigint_big_mul;
          Alcotest.test_case "divmod sign convention" `Quick test_bigint_divmod_sign_convention;
          Alcotest.test_case "division by zero" `Quick test_bigint_div_by_zero;
          Alcotest.test_case "pow" `Quick test_bigint_pow;
          Alcotest.test_case "gcd" `Quick test_bigint_gcd;
          Alcotest.test_case "mixed-sign chain" `Quick test_bigint_mixed_sign_chain;
          Alcotest.test_case "min/max helpers" `Quick test_bigint_min_max;
          Alcotest.test_case "of_string validation" `Quick test_bigint_of_string_invalid;
          Alcotest.test_case "to_float" `Quick test_bigint_to_float;
        ] );
      ( "rat",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
          Alcotest.test_case "of_float_approx" `Quick test_rat_of_float_approx;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        ] );
      ( "heap",
        [
          Alcotest.test_case "heapsort" `Quick test_heap_sorts;
          Alcotest.test_case "fourheap tie-break" `Quick test_fourheap_ties_by_secondary;
          Alcotest.test_case "pop empty" `Quick test_heap_pop_empty;
          Alcotest.test_case "peek" `Quick test_heap_peek;
        ] );
      ("union_find", [ Alcotest.test_case "components" `Quick test_union_find ]);
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "formatting" `Quick test_table_formatting;
          Alcotest.test_case "short rows" `Quick test_table_pads_short_rows;
        ] );
      ( "pool",
        [
          Alcotest.test_case "matches sequential map" `Quick test_pool_matches_sequential;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "failing batch drains" `Quick test_pool_failing_batch_drains;
          Alcotest.test_case "nested + shutdown" `Quick test_pool_nested_and_shutdown;
          Alcotest.test_case "snapshot observability" `Quick test_pool_snapshot;
          Alcotest.test_case "small arrays" `Quick test_pool_small_arrays;
        ] );
      ( "json",
        [
          Alcotest.test_case "escaping and float rule" `Quick test_json_rules;
          Alcotest.test_case "decoder" `Quick test_json_decode;
        ] );
      ( "memo",
        [
          Alcotest.test_case "basics" `Quick test_memo_basics;
          Alcotest.test_case "capacity bound" `Quick test_memo_capacity;
          Alcotest.test_case "domain concurrency" `Quick test_memo_concurrent;
          Alcotest.test_case "single flight" `Quick test_memo_single_flight;
          Alcotest.test_case "single flight failure" `Quick test_memo_single_flight_failure;
          Alcotest.test_case "two generations" `Quick test_memo_two_generations;
        ] );
      ("properties", qsuite);
    ]
