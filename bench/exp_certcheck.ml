(* CI gate for the float-first simplex path.

   Two properties over each of two fixed seeded corpora of LPs:

   1. Soundness (hard): the float-first result must equal the seed
      solver's result exactly — same constructor, same rational
      objective.  The seed solver ([Lp_oracle], test-side) shares no
      code with the production simplex, and certification guarantees
      agreement by construction, so any mismatch is a bug and fails the
      run outright.

   2. Effectiveness (threshold): certification falling back to the
      exact solver is correct but wasted work.  A regression that makes
      the float path give up too often (bad eps, a broken warm-restart,
      an over-strict certificate) would silently erase the speedup this
      path exists for — so the fallback *rate* on each corpus is gated.
      Only instances whose true answer is Optimal count toward the rate:
      float claims of Infeasible / Unbounded carry no certificate and
      fall back by design, so they measure the corpus mix, not the code.
      The corpora are seeded and the solver deterministic, so a rate is
      a constant of the code, not a flaky measurement; the gate leaves
      headroom above the current rates for eps retuning.

   The first corpus is random mixed LPs.  The second is shaped like the
   floorplanner's k-way assignment rows with branch-and-bound fixings:
   there phase 1 often ends with an artificial basic on a row whose
   non-zero columns are all at their upper bound or fixed, the case the
   simplex resolves with a degenerate exchange. *)

open Tapa_cs_util
module Ilp = Tapa_cs_ilp

let max_fallback_rate = 0.02

let random_model rng =
  let m = Ilp.Model.create () in
  let nv = 2 + Prng.int rng 6 in
  let vars =
    List.init nv (fun _ ->
        if Prng.int rng 3 = 0 then Ilp.Model.add_var m Ilp.Model.Continuous
        else Ilp.Model.add_var m Ilp.Model.Continuous ~ub:(Rat.of_int (1 + Prng.int rng 9)))
  in
  let nc = 1 + Prng.int rng 7 in
  for _ = 1 to nc do
    let terms =
      List.filter_map
        (fun v ->
          match Prng.int rng 4 with
          | 0 -> None
          | _ -> Some (v, Rat.of_int (Prng.int_in rng (-4) 5)))
        vars
    in
    if terms <> [] then begin
      let rel =
        match Prng.int rng 3 with 0 -> Ilp.Model.Le | 1 -> Ilp.Model.Ge | _ -> Ilp.Model.Eq
      in
      (* Keep Ge/Eq right-hand sides small so a decent fraction of the
         corpus stays feasible. *)
      let rhs =
        match rel with
        | Ilp.Model.Le -> Rat.of_int (Prng.int_in rng 0 30)
        | _ -> Rat.of_int (Prng.int_in rng 0 6)
      in
      Ilp.Model.add_constraint m (Ilp.Linear.of_terms terms) rel rhs
    end
  done;
  let sense = if Prng.int rng 2 = 0 then Ilp.Model.Maximize else Ilp.Model.Minimize in
  Ilp.Model.set_objective m sense
    (Ilp.Linear.of_terms (List.map (fun v -> (v, Rat.of_int (Prng.int_in rng (-5) 6))) vars));
  m

(* 2-6 items over 2-4 parts: x_ip in [0, 1] with about a quarter fixed
   to 0 by its upper bound, sum_p x_ip = 1 per item, one capacity row
   per part (item weights 1-5, capacity 3-10), costs 0-6 minimized. *)
let assignment_model rng =
  let m = Ilp.Model.create () in
  let items = Prng.int_in rng 2 6 in
  let parts = Prng.int_in rng 2 4 in
  let x =
    Array.init items (fun _ ->
        Array.init parts (fun _ ->
            let ub = if Prng.int rng 4 = 0 then Rat.zero else Rat.one in
            Ilp.Model.add_var m Ilp.Model.Continuous ~ub))
  in
  let weight = Array.init items (fun _ -> Rat.of_int (Prng.int_in rng 1 5)) in
  Array.iter
    (fun xi ->
      Ilp.Model.add_constraint m
        (Ilp.Linear.of_terms (Array.to_list (Array.map (fun v -> (v, Rat.one)) xi)))
        Ilp.Model.Eq Rat.one)
    x;
  for part = 0 to parts - 1 do
    Ilp.Model.add_constraint m
      (Ilp.Linear.of_terms (List.init items (fun i -> (x.(i).(part), weight.(i)))))
      Ilp.Model.Le
      (Rat.of_int (Prng.int_in rng 3 10))
  done;
  Ilp.Model.set_objective m Ilp.Model.Minimize
    (Ilp.Linear.of_terms
       (List.concat_map
          (fun xi -> Array.to_list (Array.map (fun v -> (v, Rat.of_int (Prng.int rng 7))) xi))
          (Array.to_list x)));
  m

let check_corpus ~name ~seed ~size model =
  let rng = Prng.create seed in
  let fallbacks = ref 0 and mismatches = ref 0 and optimal = ref 0 in
  for i = 1 to size do
    let m = model rng in
    let ff = Ilp.Simplex.solve_float_first (Ilp.Simplex.prepare m) in
    (match (ff.Ilp.Simplex.ff_result, Lp_oracle.solve m) with
    | Ilp.Simplex.Optimal a, Ilp.Simplex.Optimal b ->
      incr optimal;
      if not ff.Ilp.Simplex.ff_certified then incr fallbacks;
      if not (Rat.equal a.Ilp.Simplex.objective b.Ilp.Simplex.objective) then begin
        incr mismatches;
        Printf.printf "  MISMATCH on %s instance %d: objectives differ\n" name i
      end
    | Ilp.Simplex.Infeasible, Ilp.Simplex.Infeasible -> ()
    | Ilp.Simplex.Unbounded, Ilp.Simplex.Unbounded -> ()
    | _ ->
      incr mismatches;
      Printf.printf "  MISMATCH on %s instance %d: result constructors differ\n" name i)
  done;
  let rate = if !optimal = 0 then 0.0 else float_of_int !fallbacks /. float_of_int !optimal in
  Printf.printf
    "  %s: %d instances, %d optimal, %d fallbacks on optimal instances (%.1f%%), %d mismatches\n"
    name size !optimal !fallbacks (100.0 *. rate) !mismatches;
  if !mismatches > 0 then Gate.fail "%s: float-first and seed solver disagree" name;
  if rate > max_fallback_rate then
    Gate.fail "%s: fallback rate %.1f%% exceeds the %.1f%% gate" name (100.0 *. rate)
      (100.0 *. max_fallback_rate)

let run () =
  Exp_common.section "Float-first certification gate (seeded corpora)";
  check_corpus ~name:"random" ~seed:20240806 ~size:400 random_model;
  check_corpus ~name:"assignment" ~seed:7 ~size:300 assignment_model;
  Printf.printf "  certification gate passed (threshold %.1f%%)\n" (100.0 *. max_fallback_rate)
