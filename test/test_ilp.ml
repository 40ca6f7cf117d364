(* Tests for the exact LP/ILP solver: linear expressions, simplex against
   known optima, branch-and-bound cross-checked with brute force. *)

open Tapa_cs_util
open Tapa_cs_ilp

let check = Alcotest.check
let bool = Alcotest.bool
let r = Rat.of_int
let ri = Rat.of_ints

let rat = Alcotest.testable (fun fmt x -> Format.pp_print_string fmt (Rat.to_string x)) Rat.equal

(* ------------------------------------------------------------------ *)
(* Linear                                                              *)
(* ------------------------------------------------------------------ *)

let test_linear_combination () =
  let e = Linear.of_terms ~const:(r 3) [ (0, r 2); (1, r (-1)) ] in
  check rat "coeff 0" (r 2) (Linear.coeff e 0);
  check rat "coeff 1" (r (-1)) (Linear.coeff e 1);
  check rat "coeff absent" Rat.zero (Linear.coeff e 7);
  check rat "const" (r 3) (Linear.const e);
  let v = function 0 -> r 5 | 1 -> r 2 | _ -> Rat.zero in
  check rat "eval" (r 11) (Linear.eval e v)

let test_linear_cancellation () =
  let e = Linear.add (Linear.var 0) (Linear.var 0 ~coeff:(r (-1))) in
  check bool "cancelled term dropped" true (Linear.terms e = []);
  check Alcotest.int "max_var of constant" (-1) (Linear.max_var e)

let test_linear_scale_sub () =
  let e = Linear.scale (r 3) (Linear.of_terms [ (2, ri 1 3) ]) in
  check rat "scaled" (r 1) (Linear.coeff e 2);
  let d = Linear.sub e e in
  check bool "self subtraction empty" true (Linear.terms d = [] && Rat.is_zero (Linear.const d))

(* ------------------------------------------------------------------ *)
(* Simplex                                                             *)
(* ------------------------------------------------------------------ *)

let test_simplex_textbook () =
  (* max 3x + 2y st x+y<=4, x+3y<=6 -> 12 at (4,0) *)
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous and y = Model.add_var m Model.Continuous in
  Model.add_constraint m (Linear.of_terms [ (x, r 1); (y, r 1) ]) Model.Le (r 4);
  Model.add_constraint m (Linear.of_terms [ (x, r 1); (y, r 3) ]) Model.Le (r 6);
  Model.set_objective m Model.Maximize (Linear.of_terms [ (x, r 3); (y, r 2) ]);
  match Simplex.solve m with
  | Simplex.Optimal s ->
    check rat "objective" (r 12) s.objective;
    check rat "x" (r 4) s.values.(x);
    check rat "y" Rat.zero s.values.(y)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_equality_and_ge () =
  (* min x + y st x + y = 10, x >= 3, y >= 2 -> 10 *)
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous and y = Model.add_var m Model.Continuous in
  Model.add_constraint m (Linear.of_terms [ (x, r 1); (y, r 1) ]) Model.Eq (r 10);
  Model.add_constraint m (Linear.var x) Model.Ge (r 3);
  Model.add_constraint m (Linear.var y) Model.Ge (r 2);
  Model.set_objective m Model.Minimize (Linear.of_terms [ (x, r 1); (y, r 1) ]);
  match Simplex.solve m with
  | Simplex.Optimal s -> check rat "objective" (r 10) s.objective
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous in
  Model.add_constraint m (Linear.var x) Model.Ge (r 5);
  Model.add_constraint m (Linear.var x) Model.Le (r 3);
  check bool "infeasible" true (Simplex.solve m = Simplex.Infeasible)

let test_simplex_unbounded () =
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous in
  Model.set_objective m Model.Maximize (Linear.var x);
  check bool "unbounded" true (Simplex.solve m = Simplex.Unbounded)

let test_simplex_bounds_override () =
  (* Same model, tightened bounds through the B&B hook. *)
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous ~ub:(r 10) in
  Model.set_objective m Model.Maximize (Linear.var x);
  (match Simplex.solve m with
  | Simplex.Optimal s -> check rat "default ub" (r 10) s.objective
  | _ -> Alcotest.fail "expected optimal");
  match Simplex.solve ~bounds:([| r 2 |], [| Some (r 5) |]) m with
  | Simplex.Optimal s -> check rat "overridden ub" (r 5) s.objective
  | _ -> Alcotest.fail "expected optimal with bounds"

let test_simplex_fractional_optimum () =
  (* max x + y st 2x + y <= 3, x + 2y <= 3 -> optimum at (1,1): 2 exactly *)
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous and y = Model.add_var m Model.Continuous in
  Model.add_constraint m (Linear.of_terms [ (x, r 2); (y, r 1) ]) Model.Le (r 3);
  Model.add_constraint m (Linear.of_terms [ (x, r 1); (y, r 2) ]) Model.Le (r 3);
  Model.set_objective m Model.Maximize (Linear.of_terms [ (x, r 1); (y, r 1) ]);
  match Simplex.solve m with
  | Simplex.Optimal s -> check rat "exact rational objective" (r 2) s.objective
  | _ -> Alcotest.fail "expected optimal"

(* Random LPs: any claimed optimum must satisfy all constraints, and beat a
   sampled grid of feasible points. *)
let prop_simplex_sound =
  QCheck.Test.make ~name:"simplex optimum is feasible and dominates samples" ~count:60
    QCheck.(pair (int_range 0 10000) (int_range 1 4))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let m = Model.create () in
      let vars = List.init n (fun _ -> Model.add_var m Model.Continuous ~ub:(r 5)) in
      let ncon = 1 + Prng.int rng 4 in
      let cons =
        List.init ncon (fun _ ->
            let coeffs = List.map (fun v -> (v, r (Prng.int_in rng 0 4))) vars in
            let rhs = r (Prng.int_in rng 1 20) in
            Model.add_constraint m (Linear.of_terms coeffs) Model.Le rhs;
            (coeffs, rhs))
      in
      let obj = List.map (fun v -> (v, r (Prng.int_in rng (-3) 5))) vars in
      Model.set_objective m Model.Maximize (Linear.of_terms obj);
      match Simplex.solve m with
      | Simplex.Optimal s ->
        let value v = s.values.(v) in
        let feasible =
          List.for_all
            (fun (coeffs, rhs) ->
              Rat.compare (Linear.eval (Linear.of_terms coeffs) value) rhs <= 0)
            cons
          && List.for_all (fun v -> Rat.sign (value v) >= 0 && Rat.compare (value v) (r 5) <= 0) vars
        in
        (* sample integer grid points in [0,2]^n *)
        let dominates = ref true in
        let rec grid assign = function
          | [] ->
            let value v = r (List.assoc v assign) in
            let ok =
              List.for_all
                (fun (coeffs, rhs) ->
                  Rat.compare (Linear.eval (Linear.of_terms coeffs) value) rhs <= 0)
                cons
            in
            if ok then begin
              let o = Linear.eval (Linear.of_terms obj) value in
              if Rat.compare o s.objective > 0 then dominates := false
            end
          | v :: rest ->
            for c = 0 to 2 do
              grid ((v, c) :: assign) rest
            done
        in
        grid [] vars;
        feasible && !dominates
      | Simplex.Unbounded -> false (* bounded by construction: ub on every var *)
      | Simplex.Infeasible -> false (* origin is always feasible *))

(* Differential check of the prepared (bounded-variable) simplex against
   the reference solver: random mixed models, random bound restrictions —
   same result constructor and, when optimal, the same objective (the
   optimal vertex may legitimately differ). *)
let prop_prepared_matches_reference =
  QCheck.Test.make ~name:"prepared simplex matches reference solver" ~count:300
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int_in rng 1 6 in
      let m = Model.create () in
      let vars =
        List.init n (fun _ ->
            if Prng.int rng 2 = 0 then Model.add_var m Model.Binary
            else begin
              let lb = r (Prng.int rng 3) in
              match Prng.int rng 3 with
              | 0 -> Model.add_var m Model.Continuous ~lb
              | _ -> Model.add_var m Model.Continuous ~lb ~ub:(Rat.add lb (r (Prng.int rng 5)))
            end)
      in
      let ncon = Prng.int_in rng 1 5 in
      for _ = 1 to ncon do
        let coeffs = List.map (fun v -> (v, r (Prng.int_in rng (-4) 4))) vars in
        let rel = match Prng.int rng 3 with 0 -> Model.Le | 1 -> Model.Ge | _ -> Model.Eq in
        Model.add_constraint m (Linear.of_terms coeffs) rel (r (Prng.int_in rng (-5) 10))
      done;
      let sense = if Prng.int rng 2 = 0 then Model.Minimize else Model.Maximize in
      Model.set_objective m sense
        (Linear.of_terms (List.map (fun v -> (v, r (Prng.int_in rng (-5) 5))) vars));
      (* Random bound restriction, as branch-and-bound would apply. *)
      let bounds =
        if Prng.int rng 2 = 0 then None
        else begin
          let lbs = Array.init n (Model.var_lb m) in
          let ubs = Array.init n (Model.var_ub m) in
          List.iter
            (fun v ->
              if Prng.int rng 3 = 0 then lbs.(v) <- Rat.add lbs.(v) (r (Prng.int rng 2));
              if Prng.int rng 3 = 0 then ubs.(v) <- Some (r (Prng.int rng 3)))
            vars;
          Some (lbs, ubs)
        end
      in
      let reference = Lp_oracle.solve ?bounds m in
      let prepared = Simplex.solve_prepared ?bounds (Simplex.prepare m) in
      match (reference, prepared) with
      | Simplex.Optimal a, Simplex.Optimal b -> Rat.equal a.objective b.objective
      | Simplex.Infeasible, Simplex.Infeasible -> true
      | Simplex.Unbounded, Simplex.Unbounded -> true
      | _ -> false)

(* Differential check of the float-first certified path against the
   reference solver: the certify-then-fallback contract promises exact
   equality of the objective (not mere closeness), whichever of the two
   internal routes produced it. *)
let prop_float_first_matches_reference =
  QCheck.Test.make ~name:"float-first certified simplex matches reference solver" ~count:300
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int_in rng 1 6 in
      let m = Model.create () in
      let vars =
        List.init n (fun _ ->
            if Prng.int rng 2 = 0 then Model.add_var m Model.Binary
            else begin
              let lb = r (Prng.int rng 3) in
              match Prng.int rng 3 with
              | 0 -> Model.add_var m Model.Continuous ~lb
              | _ -> Model.add_var m Model.Continuous ~lb ~ub:(Rat.add lb (r (Prng.int rng 5)))
            end)
      in
      let ncon = Prng.int_in rng 1 5 in
      for _ = 1 to ncon do
        let coeffs = List.map (fun v -> (v, r (Prng.int_in rng (-4) 4))) vars in
        let rel = match Prng.int rng 3 with 0 -> Model.Le | 1 -> Model.Ge | _ -> Model.Eq in
        Model.add_constraint m (Linear.of_terms coeffs) rel (r (Prng.int_in rng (-5) 10))
      done;
      let sense = if Prng.int rng 2 = 0 then Model.Minimize else Model.Maximize in
      Model.set_objective m sense
        (Linear.of_terms (List.map (fun v -> (v, r (Prng.int_in rng (-5) 5))) vars));
      let bounds =
        if Prng.int rng 2 = 0 then None
        else begin
          let lbs = Array.init n (Model.var_lb m) in
          let ubs = Array.init n (Model.var_ub m) in
          List.iter
            (fun v ->
              if Prng.int rng 3 = 0 then lbs.(v) <- Rat.add lbs.(v) (r (Prng.int rng 2));
              if Prng.int rng 3 = 0 then ubs.(v) <- Some (r (Prng.int rng 3)))
            vars;
          Some (lbs, ubs)
        end
      in
      let reference = Lp_oracle.solve ?bounds m in
      let ff = Simplex.solve_float_first ?bounds (Simplex.prepare m) in
      match (reference, ff.Simplex.ff_result) with
      | Simplex.Optimal a, Simplex.Optimal b ->
        Rat.equal a.objective b.objective
        && List.for_all
             (fun (e, rel, rhs) ->
               let lhs = Linear.eval e (fun v -> b.values.(v)) in
               match rel with
               | Model.Le -> Rat.compare lhs rhs <= 0
               | Model.Ge -> Rat.compare lhs rhs >= 0
               | Model.Eq -> Rat.equal lhs rhs)
             (Model.constraints m)
      | Simplex.Infeasible, Simplex.Infeasible -> true
      | Simplex.Unbounded, Simplex.Unbounded -> true
      | _ -> false)

(* Adversarial near-degenerate instances: coefficients whose differences
   vanish in double precision.  The float path must NOT be trusted here —
   certification has to reject its basis (or its feasibility verdict) and
   the exact fallback must still return the exact optimum. *)
let big_rat num den = Rat.make (Bigint.of_string num) (Bigint.of_string den)

let test_float_first_adversarial_tie () =
  (* max x + (1 + 10^-30) y  st  x + y <= 1.  In doubles both objective
     coefficients round to 1.0 and Dantzig pricing picks x; the true
     optimum needs y.  The exact dual check sees the 10^-30 reduced cost
     and must refuse to certify. *)
  let q = big_rat "1" "1000000000000000000000000000000" in
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous and y = Model.add_var m Model.Continuous in
  Model.add_constraint m (Linear.of_terms [ (x, r 1); (y, r 1) ]) Model.Le (r 1);
  Model.set_objective m Model.Maximize
    (Linear.of_terms [ (x, r 1); (y, Rat.add (r 1) q) ]);
  let ff = Simplex.solve_float_first (Simplex.prepare m) in
  (match ff.Simplex.ff_result with
  | Simplex.Optimal s ->
    check rat "exact tie-broken optimum" (Rat.add (r 1) q) s.objective;
    check rat "y carries the bonus" (r 1) s.values.(y)
  | _ -> Alcotest.fail "expected optimal");
  check bool "certification refused the float basis" false ff.Simplex.ff_certified;
  match Lp_oracle.solve m with
  | Simplex.Optimal s -> check rat "reference agrees" (Rat.add (r 1) q) s.objective
  | _ -> Alcotest.fail "reference should be optimal"

let test_float_first_adversarial_infeasible () =
  (* x <= 10^-21 yet x >= 10^-20: truly infeasible, but the violation is
     far below any float feasibility tolerance, so the float phase 1
     accepts it.  Exact certification must catch the lie and the fallback
     must return Infeasible. *)
  let tiny_ub = big_rat "1" "1000000000000000000000" in
  let tiny_lb = big_rat "1" "100000000000000000000" in
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous ~ub:tiny_ub in
  Model.add_constraint m (Linear.var x) Model.Ge tiny_lb;
  Model.set_objective m Model.Maximize (Linear.var x);
  let ff = Simplex.solve_float_first (Simplex.prepare m) in
  check bool "exactly infeasible" true (ff.Simplex.ff_result = Simplex.Infeasible);
  check bool "float path could not certify" false ff.Simplex.ff_certified

let test_float_first_certifies_clean_lp () =
  (* Well-conditioned LP: the float basis must pass exact certification
     (no fallback) and reproduce the known rational optimum. *)
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous and y = Model.add_var m Model.Continuous in
  Model.add_constraint m (Linear.of_terms [ (x, r 2); (y, r 1) ]) Model.Le (r 3);
  Model.add_constraint m (Linear.of_terms [ (x, r 1); (y, r 2) ]) Model.Le (r 3);
  Model.set_objective m Model.Maximize (Linear.of_terms [ (x, r 1); (y, r 1) ]);
  let ff = Simplex.solve_float_first (Simplex.prepare m) in
  (match ff.Simplex.ff_result with
  | Simplex.Optimal s ->
    check rat "exact objective from certified basis" (r 2) s.objective;
    check rat "x" (r 1) s.values.(x);
    check rat "y" (r 1) s.values.(y)
  | _ -> Alcotest.fail "expected optimal");
  check bool "certified without fallback" true ff.Simplex.ff_certified

(* Phase 1 can end with an artificial basic (at zero) on a row whose
   non-zero columns all sit at their upper bound or are fixed.  The
   simplex exchanges the artificial for one of them in a degenerate
   pivot, so the float basis still certifies and the exact run agrees
   with the oracle. *)
let test_stuck_artificial_exchange () =
  let check_lp label m =
    let p = Simplex.prepare m in
    let ff = Simplex.solve_float_first p in
    (match ff.Simplex.ff_result with
    | Simplex.Optimal s -> check rat (label ^ ": float-first optimum") (r 1) s.objective
    | _ -> Alcotest.fail (label ^ ": expected optimal"));
    check bool (label ^ ": certified without fallback") true ff.Simplex.ff_certified;
    match (Simplex.solve_prepared p, Lp_oracle.solve m) with
    | Simplex.Optimal a, Simplex.Optimal b ->
      check rat (label ^ ": exact optimum") (r 1) a.objective;
      check rat (label ^ ": oracle agrees") a.objective b.objective
    | _ -> Alcotest.fail (label ^ ": expected optimal from both exact solvers")
  in
  (* max x  s.t.  x = 1, 0 <= x <= 1: phase 1 flips x to its upper bound
     and leaves the artificial basic. *)
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous ~ub:(r 1) in
  Model.add_constraint m (Linear.var x) Model.Eq (r 1);
  Model.set_objective m Model.Maximize (Linear.var x);
  check_lp "x = 1" m;
  (* x0 + x1 = 1 with x1 fixed to 0 by its upper bound, y >= x0,
     min y + x1: x0 ends phase 1 at its upper bound, and the column
     that replaces the artificial is x1, the first one, fixed. *)
  let m = Model.create () in
  let x1 = Model.add_var m Model.Continuous ~ub:Rat.zero in
  let x0 = Model.add_var m Model.Continuous ~ub:(r 1) in
  let y = Model.add_var m Model.Continuous in
  Model.add_constraint m (Linear.of_terms [ (x0, r 1); (x1, r 1) ]) Model.Eq (r 1);
  Model.add_constraint m (Linear.of_terms [ (y, r 1); (x0, r (-1)) ]) Model.Ge Rat.zero;
  Model.set_objective m Model.Minimize (Linear.of_terms [ (y, r 1); (x1, r 1) ]);
  check_lp "fixed column" m

(* Infeasible LPs are settled by a Farkas ray checked exactly, not by an
   exact re-solve, on both float routes: the dual simplex of a warm child
   and a cold phase 1. *)
let test_farkas_warm_child () =
  (* x + y >= 3/2 over [0, 1]^2, min x + 2y: the root's basis has y
     basic at 1/2.  Fixing x to 0 leaves y >= 3/2 > 1, and the dual
     simplex finds no column to repair y's row. *)
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous ~ub:(r 1) in
  let y = Model.add_var m Model.Continuous ~ub:(r 1) in
  Model.add_constraint m (Linear.of_terms [ (x, r 1); (y, r 1) ]) Model.Ge (Rat.of_ints 3 2);
  Model.set_objective m Model.Minimize (Linear.of_terms [ (x, r 1); (y, r 2) ]);
  let p = Simplex.prepare m in
  let root = Simplex.solve_float_first p in
  let warm =
    match (root.Simplex.ff_result, root.Simplex.ff_basis) with
    | Simplex.Optimal s, Some b ->
      check rat "root optimum" (Rat.of_ints 2 1) s.objective;
      b
    | _ -> Alcotest.fail "root: expected a certified optimum"
  in
  let bounds = ([| r 0; r 0 |], [| Some (r 0); Some (r 1) |]) in
  let ff = Simplex.solve_float_first ~bounds ~warm p in
  check bool "child infeasible" true (ff.Simplex.ff_result = Simplex.Infeasible);
  check bool "proven by the dual simplex's ray" true ff.Simplex.ff_certified;
  check bool "oracle agrees" true (Lp_oracle.solve ~bounds m = Simplex.Infeasible)

let test_farkas_phase1 () =
  (* x + y >= 3 over [0, 1]^2: phase 1 ends with the artificial at 1. *)
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous ~ub:(r 1) in
  let y = Model.add_var m Model.Continuous ~ub:(r 1) in
  Model.add_constraint m (Linear.of_terms [ (x, r 1); (y, r 1) ]) Model.Ge (r 3);
  Model.set_objective m Model.Maximize (Linear.of_terms [ (x, r 1); (y, r 1) ]);
  let ff = Simplex.solve_float_first (Simplex.prepare m) in
  check bool "infeasible" true (ff.Simplex.ff_result = Simplex.Infeasible);
  check bool "proven by phase 1's duals" true ff.Simplex.ff_certified

let test_farkas_refuted_claim () =
  (* x + 10^-9 z >= 1, x in [0, 1], z in [0, 10^9], min z.  The root
     fixes z to 0, so its basis holds the row's surplus with x at its
     upper bound.  The child fixes x to 0 and loosens z: the row is now
     violated, and z, the only column that repairs it, has an entry
     below the float pivot tolerance, so the dual simplex claims
     infeasibility.  Its ray does not prove it (z = 10^9 is feasible),
     and the exact re-solve returns that optimum. *)
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous ~ub:(r 1) in
  let z = Model.add_var m Model.Continuous ~ub:(r 1_000_000_000) in
  Model.add_constraint m
    (Linear.of_terms [ (x, r 1); (z, Rat.of_ints 1 1_000_000_000) ])
    Model.Ge (r 1);
  Model.set_objective m Model.Minimize (Linear.var z);
  let p = Simplex.prepare m in
  let root = Simplex.solve_float_first ~bounds:([| r 0; r 0 |], [| Some (r 1); Some (r 0) |]) p in
  let warm =
    match root.Simplex.ff_basis with
    | Some b -> b
    | None -> Alcotest.fail "root: expected a certified basis"
  in
  let bounds = ([| r 0; r 0 |], [| Some (r 0); Some (r 1_000_000_000) |]) in
  let ff = Simplex.solve_float_first ~bounds ~warm p in
  (match ff.Simplex.ff_result with
  | Simplex.Optimal s ->
    check rat "exact optimum" (r 1_000_000_000) s.objective;
    check rat "z at its bound" (r 1_000_000_000) s.values.(z)
  | _ -> Alcotest.fail "expected optimal");
  check bool "claim not accepted" false ff.Simplex.ff_certified;
  match Lp_oracle.solve ~bounds m with
  | Simplex.Optimal s -> check rat "oracle agrees" (r 1_000_000_000) s.objective
  | _ -> Alcotest.fail "oracle: expected optimal"

(* ------------------------------------------------------------------ *)
(* Branch and bound                                                    *)
(* ------------------------------------------------------------------ *)

let test_bb_knapsack () =
  let m = Model.create () in
  let a = Model.add_var m Model.Binary
  and b = Model.add_var m Model.Binary
  and c = Model.add_var m Model.Binary in
  Model.add_constraint m (Linear.of_terms [ (a, r 5); (b, r 4); (c, r 3) ]) Model.Le (r 10);
  Model.set_objective m Model.Maximize (Linear.of_terms [ (a, r 10); (b, r 6); (c, r 4) ]);
  match Branch_bound.solve m with
  | Branch_bound.Optimal s ->
    check rat "knapsack optimum" (r 16) s.objective;
    check bool "solution is feasible" true (Branch_bound.is_feasible m s.values)
  | _ -> Alcotest.fail "expected optimal"

let test_bb_integer_infeasible () =
  (* 2x = 1 has a fractional LP solution but no binary solution. *)
  let m = Model.create () in
  let x = Model.add_var m Model.Binary in
  Model.add_constraint m (Linear.var x ~coeff:(r 2)) Model.Eq (r 1);
  check bool "integer infeasible" true (Branch_bound.solve m = Branch_bound.Infeasible)

let test_bb_respects_incumbent () =
  let m = Model.create () in
  let x = Model.add_var m Model.Binary and y = Model.add_var m Model.Binary in
  Model.add_constraint m (Linear.of_terms [ (x, r 1); (y, r 1) ]) Model.Le (r 1);
  Model.set_objective m Model.Maximize (Linear.of_terms [ (x, r 2); (y, r 3) ]);
  let incumbent = [| Rat.zero; Rat.one |] in
  match Branch_bound.solve ~incumbent m with
  | Branch_bound.Optimal s -> check rat "optimum" (r 3) s.objective
  | _ -> Alcotest.fail "expected optimal"

let test_bb_minimization () =
  let m = Model.create () in
  let x = Model.add_var m Model.Binary and y = Model.add_var m Model.Binary in
  Model.add_constraint m (Linear.of_terms [ (x, r 1); (y, r 1) ]) Model.Ge (r 1);
  Model.set_objective m Model.Minimize (Linear.of_terms [ (x, r 5); (y, r 3) ]);
  match Branch_bound.solve m with
  | Branch_bound.Optimal s -> check rat "min optimum" (r 3) s.objective
  | _ -> Alcotest.fail "expected optimal"

let test_is_feasible_rejects () =
  let m = Model.create () in
  let x = Model.add_var m Model.Binary in
  Model.add_constraint m (Linear.var x) Model.Le Rat.zero;
  check bool "violating assignment rejected" false (Branch_bound.is_feasible m [| Rat.one |]);
  check bool "fractional rejected" false (Branch_bound.is_feasible m [| ri 1 2 |]);
  check bool "ok accepted" true (Branch_bound.is_feasible m [| Rat.zero |])

(* Exhaustive cross-check on random small ILPs. *)
let prop_bb_matches_brute_force =
  QCheck.Test.make ~name:"branch&bound matches brute force" ~count:120
    (QCheck.int_range 0 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int_in rng 2 7 in
      let ncon = Prng.int_in rng 1 4 in
      let m = Model.create () in
      let vars = List.init n (fun _ -> Model.add_var m Model.Binary) in
      let cons =
        List.init ncon (fun _ ->
            let coeffs = List.map (fun v -> (v, r (Prng.int_in rng (-5) 5))) vars in
            let rhs = r (Prng.int_in rng (-3) 8) in
            Model.add_constraint m (Linear.of_terms coeffs) Model.Le rhs;
            (coeffs, rhs))
      in
      let obj = List.map (fun v -> (v, r (Prng.int_in rng (-9) 9))) vars in
      Model.set_objective m Model.Maximize (Linear.of_terms obj);
      let best = ref None in
      for mask = 0 to (1 lsl n) - 1 do
        let value v = if (mask lsr v) land 1 = 1 then Rat.one else Rat.zero in
        let ok =
          List.for_all
            (fun (coeffs, rhs) -> Rat.compare (Linear.eval (Linear.of_terms coeffs) value) rhs <= 0)
            cons
        in
        if ok then begin
          let o = Linear.eval (Linear.of_terms obj) value in
          match !best with
          | Some b when Rat.compare b o >= 0 -> ()
          | _ -> best := Some o
        end
      done;
      match (Branch_bound.solve m, !best) with
      | Branch_bound.Optimal s, Some b ->
        let c = s.counters in
        Rat.equal s.objective b
        && Branch_bound.is_feasible m s.values
        (* every LP solve was either certified or fell back to exact *)
        && c.Counters.lp_certified + c.Counters.lp_fallbacks = c.Counters.lp_solves
      | Branch_bound.Infeasible, None -> true
      | _ -> false)

(* Budget-limited searches must never hand back an unchecked incumbent:
   whatever constructor comes out, any solution it carries is a feasible
   integral assignment whose stored objective matches an exact
   re-evaluation of the objective at those values. *)
let prop_bb_limited_incumbents_certified =
  QCheck.Test.make ~name:"budget-limited B&B incumbents stay feasible and certified" ~count:100
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int_in rng 3 8 in
      let ncon = Prng.int_in rng 1 4 in
      let m = Model.create () in
      let vars = List.init n (fun _ -> Model.add_var m Model.Binary) in
      for _ = 1 to ncon do
        let coeffs = List.map (fun v -> (v, r (Prng.int_in rng (-5) 5))) vars in
        Model.add_constraint m (Linear.of_terms coeffs) Model.Le (r (Prng.int_in rng 0 8))
      done;
      let obj = Linear.of_terms (List.map (fun v -> (v, r (Prng.int_in rng (-9) 9))) vars) in
      Model.set_objective m Model.Maximize obj;
      let max_nodes = Prng.int_in rng 0 6 in
      let certified (s : Branch_bound.solution) =
        Branch_bound.is_feasible m s.values
        && Rat.equal s.objective (Linear.eval obj (fun v -> s.values.(v)))
      in
      match Branch_bound.solve ~max_nodes m with
      | Branch_bound.Optimal s | Branch_bound.Feasible s -> certified s
      | Branch_bound.Timeout (Some s) -> certified s
      | Branch_bound.Timeout None | Branch_bound.Infeasible | Branch_bound.Unbounded -> true)

(* The parallel search is a wall-clock lever only: under a fixed node
   budget — i.e. when the search may stop mid-tree with a best-so-far —
   running on a worker pool must reproduce the poolless run byte for
   byte, counters included, and every returned incumbent is feasible. *)
let prop_bb_parallel_deterministic_best_so_far =
  let same_solution (a : Branch_bound.solution) (b : Branch_bound.solution) =
    Rat.equal a.objective b.objective
    && Array.length a.values = Array.length b.values
    && Array.for_all2 Rat.equal a.values b.values
    && a.counters = b.counters
  in
  let same_result a b =
    match (a, b) with
    | Branch_bound.Optimal x, Branch_bound.Optimal y
    | Branch_bound.Feasible x, Branch_bound.Feasible y
    | Branch_bound.Timeout (Some x), Branch_bound.Timeout (Some y) -> same_solution x y
    | Branch_bound.Infeasible, Branch_bound.Infeasible
    | Branch_bound.Unbounded, Branch_bound.Unbounded
    | Branch_bound.Timeout None, Branch_bound.Timeout None -> true
    | _ -> false
  in
  QCheck.Test.make ~name:"parallel B&B: deterministic best-so-far under a node budget" ~count:25
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = Prng.int_in rng 4 9 in
      let ncon = Prng.int_in rng 1 4 in
      let m = Model.create () in
      let vars = List.init n (fun _ -> Model.add_var m Model.Binary) in
      for _ = 1 to ncon do
        let coeffs = List.map (fun v -> (v, r (Prng.int_in rng (-5) 5))) vars in
        Model.add_constraint m (Linear.of_terms coeffs) Model.Le (r (Prng.int_in rng 0 8))
      done;
      Model.set_objective m Model.Maximize
        (Linear.of_terms (List.map (fun v -> (v, r (Prng.int_in rng (-9) 9))) vars));
      let max_nodes = Prng.int_in rng 2 14 in
      let r_seq = Branch_bound.solve_parallel ~max_nodes m in
      let pool = Pool.create ~domains:2 () in
      let r_par =
        Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
        Branch_bound.solve_parallel ~max_nodes ~pool m
      in
      let feasible_incumbent = function
        | Branch_bound.Optimal s | Branch_bound.Feasible s | Branch_bound.Timeout (Some s) ->
          Branch_bound.is_feasible m s.values
        | Branch_bound.Infeasible | Branch_bound.Unbounded | Branch_bound.Timeout None -> true
      in
      same_result r_seq r_par && feasible_incumbent r_seq)

let test_simplex_pivot_limit () =
  (* A model that needs pivots must raise when given none. *)
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous ~ub:(r 5) in
  let y = Model.add_var m Model.Continuous ~ub:(r 5) in
  Model.add_constraint m (Linear.of_terms [ (x, r 1); (y, r 1) ]) Model.Le (r 7);
  Model.set_objective m Model.Maximize (Linear.of_terms [ (x, r 3); (y, r 2) ]);
  Alcotest.check_raises "pivot limit" Simplex.Pivot_limit (fun () ->
      ignore (Simplex.solve ~max_pivots:1 m))

let test_simplex_degenerate () =
  (* Several redundant constraints through one vertex: degeneracy must not
     cycle (Bland fallback) and the optimum stays exact. *)
  let m = Model.create () in
  let x = Model.add_var m Model.Continuous and y = Model.add_var m Model.Continuous in
  Model.add_constraint m (Linear.of_terms [ (x, r 1); (y, r 1) ]) Model.Le (r 4);
  Model.add_constraint m (Linear.of_terms [ (x, r 2); (y, r 2) ]) Model.Le (r 8);
  Model.add_constraint m (Linear.of_terms [ (x, r 3); (y, r 3) ]) Model.Le (r 12);
  Model.add_constraint m (Linear.var x) Model.Le (r 4);
  Model.set_objective m Model.Maximize (Linear.of_terms [ (x, r 1); (y, r 1) ]);
  match Simplex.solve m with
  | Simplex.Optimal s -> check rat "degenerate optimum" (r 4) s.objective
  | _ -> Alcotest.fail "expected optimal"

let test_bb_stall_returns_incumbent () =
  (* With a zero node budget the solver must surface the seeded incumbent
     as Feasible rather than claiming optimality. *)
  let m = Model.create () in
  let vars = List.init 6 (fun _ -> Model.add_var m Model.Binary) in
  Model.add_constraint m (Linear.of_terms (List.map (fun v -> (v, r 3)) vars)) Model.Le (r 8);
  Model.set_objective m Model.Maximize (Linear.of_terms (List.map (fun v -> (v, r 5)) vars));
  let incumbent = Array.of_list (List.mapi (fun i _ -> if i = 0 then Rat.one else Rat.zero) vars) in
  match Branch_bound.solve ~max_nodes:0 ~incumbent m with
  | Branch_bound.Feasible s -> check rat "incumbent objective" (r 5) s.objective
  | Branch_bound.Optimal _ -> Alcotest.fail "cannot prove optimality with zero nodes"
  | _ -> Alcotest.fail "expected the incumbent back"

let test_bb_stop_timeout () =
  (* A stop request raised before the search starts fires at the first
     node poll: with an incumbent the solver hands it back under
     Timeout (Some _) instead of claiming optimality; without one it
     reports Timeout None.  The parallel search stops the same way. *)
  let build () =
    let m = Model.create () in
    let vars = List.init 6 (fun _ -> Model.add_var m Model.Binary) in
    Model.add_constraint m (Linear.of_terms (List.map (fun v -> (v, r 3)) vars)) Model.Le (r 8);
    Model.set_objective m Model.Maximize (Linear.of_terms (List.map (fun v -> (v, r 5)) vars));
    (m, vars)
  in
  let stop () = true in
  let m, vars = build () in
  let incumbent = Array.of_list (List.mapi (fun i _ -> if i = 0 then Rat.one else Rat.zero) vars) in
  (match Branch_bound.solve ~should_stop:stop ~incumbent m with
  | Branch_bound.Timeout (Some s) ->
    check rat "best incumbent returned" (r 5) s.objective;
    check bool "incumbent is feasible" true (Branch_bound.is_feasible m s.values)
  | Branch_bound.Optimal _ -> Alcotest.fail "cannot prove optimality once stopped"
  | _ -> Alcotest.fail "expected Timeout (Some incumbent)");
  (match Branch_bound.solve_parallel ~should_stop:stop ~incumbent m with
  | Branch_bound.Timeout (Some s) -> check rat "parallel: best incumbent returned" (r 5) s.objective
  | _ -> Alcotest.fail "parallel: expected Timeout (Some incumbent)");
  let m2, _ = build () in
  (match Branch_bound.solve ~should_stop:stop m2 with
  | Branch_bound.Timeout None -> ()
  | Branch_bound.Timeout (Some _) -> Alcotest.fail "no incumbent was seeded"
  | _ -> Alcotest.fail "expected Timeout None");
  (* A stop that never fires changes nothing. *)
  let m3, _ = build () in
  match Branch_bound.solve ~should_stop:(fun () -> false) m3 with
  | Branch_bound.Optimal s -> check rat "optimum when never stopped" (r 10) s.objective
  | _ -> Alcotest.fail "expected optimal"

let test_model_validation () =
  let m = Model.create () in
  Alcotest.check_raises "negative lb rejected"
    (Invalid_argument "Model.add_var: negative lower bound unsupported") (fun () ->
      ignore (Model.add_var m Model.Continuous ~lb:(r (-1))));
  Alcotest.check_raises "ub < lb rejected" (Invalid_argument "Model.add_var: ub < lb") (fun () ->
      ignore (Model.add_var m Model.Continuous ~lb:(r 3) ~ub:(r 2)));
  let _x = Model.add_var m Model.Binary in
  Alcotest.check_raises "unknown var in constraint"
    (Invalid_argument "Model.add_constraint: unknown variable") (fun () ->
      Model.add_constraint m (Linear.var 5) Model.Le (r 1))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_simplex_sound;
      prop_prepared_matches_reference;
      prop_float_first_matches_reference;
      prop_bb_matches_brute_force;
      prop_bb_limited_incumbents_certified;
      prop_bb_parallel_deterministic_best_so_far;
    ]

let () =
  Alcotest.run "ilp"
    [
      ( "linear",
        [
          Alcotest.test_case "combination" `Quick test_linear_combination;
          Alcotest.test_case "cancellation" `Quick test_linear_cancellation;
          Alcotest.test_case "scale and sub" `Quick test_linear_scale_sub;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "textbook max" `Quick test_simplex_textbook;
          Alcotest.test_case "equality + ge" `Quick test_simplex_equality_and_ge;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "bounds override" `Quick test_simplex_bounds_override;
          Alcotest.test_case "fractional optimum exact" `Quick test_simplex_fractional_optimum;
          Alcotest.test_case "pivot limit" `Quick test_simplex_pivot_limit;
          Alcotest.test_case "degeneracy" `Quick test_simplex_degenerate;
          Alcotest.test_case "float-first certifies clean LP" `Quick
            test_float_first_certifies_clean_lp;
          Alcotest.test_case "float-first adversarial objective tie" `Quick
            test_float_first_adversarial_tie;
          Alcotest.test_case "float-first adversarial infeasibility" `Quick
            test_float_first_adversarial_infeasible;
          Alcotest.test_case "stuck artificial exchange" `Quick test_stuck_artificial_exchange;
          Alcotest.test_case "Farkas ray: warm child" `Quick test_farkas_warm_child;
          Alcotest.test_case "Farkas ray: phase 1" `Quick test_farkas_phase1;
          Alcotest.test_case "Farkas ray: refuted float claim" `Quick test_farkas_refuted_claim;
        ] );
      ( "branch_bound",
        [
          Alcotest.test_case "knapsack" `Quick test_bb_knapsack;
          Alcotest.test_case "integer infeasible" `Quick test_bb_integer_infeasible;
          Alcotest.test_case "incumbent seeding" `Quick test_bb_respects_incumbent;
          Alcotest.test_case "minimization" `Quick test_bb_minimization;
          Alcotest.test_case "is_feasible" `Quick test_is_feasible_rejects;
          Alcotest.test_case "stall returns incumbent" `Quick test_bb_stall_returns_incumbent;
          Alcotest.test_case "should_stop timeout" `Quick test_bb_stop_timeout;
          Alcotest.test_case "model validation" `Quick test_model_validation;
        ] );
      ("properties", qsuite);
    ]
