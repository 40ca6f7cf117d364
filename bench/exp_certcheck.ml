(* CI gate for the float-first simplex path.

   Two properties over a fixed seeded corpus of random LPs:

   1. Soundness (hard): the float-first result must equal the reference
      solver's result exactly — same constructor, same rational
      objective.  Certification guarantees this by construction, so any
      mismatch is a bug and fails the run outright.

   2. Effectiveness (threshold): certification falling back to the
      exact solver is correct but wasted work.  A regression that makes
      the float path give up too often (bad eps, a broken warm-restart,
      an over-strict certificate) would silently erase the speedup this
      path exists for — so the fallback *rate* on the corpus is gated.
      Only instances whose true answer is Optimal count toward the rate:
      float claims of Infeasible / Unbounded carry no certificate and
      fall back by design, so they measure the corpus mix, not the code.
      The corpus is seeded and the solver deterministic, so the rate is
      a constant of the code, not a flaky measurement; the gate leaves
      headroom above the current rate for eps retuning. *)

open Tapa_cs_util
module Ilp = Tapa_cs_ilp

let corpus_size = 400
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

let run () =
  Exp_common.section "Float-first certification gate (seeded corpus)";
  let rng = Prng.create 20240806 in
  let fallbacks = ref 0 and mismatches = ref 0 and optimal = ref 0 in
  for i = 1 to corpus_size do
    let m = random_model rng in
    let ff = Ilp.Simplex.solve_float_first (Ilp.Simplex.prepare m) in
    let reference = Ilp.Simplex.solve_reference m in
    (match (ff.Ilp.Simplex.ff_result, reference) with
    | Ilp.Simplex.Optimal a, Ilp.Simplex.Optimal b ->
      incr optimal;
      if not ff.Ilp.Simplex.ff_certified then incr fallbacks;
      if not (Rat.equal a.Ilp.Simplex.objective b.Ilp.Simplex.objective) then begin
        incr mismatches;
        Printf.printf "  MISMATCH on instance %d: objectives differ\n" i
      end
    | Ilp.Simplex.Infeasible, Ilp.Simplex.Infeasible -> ()
    | Ilp.Simplex.Unbounded, Ilp.Simplex.Unbounded -> ()
    | _ ->
      incr mismatches;
      Printf.printf "  MISMATCH on instance %d: result constructors differ\n" i)
  done;
  let rate = if !optimal = 0 then 0.0 else float_of_int !fallbacks /. float_of_int !optimal in
  Printf.printf
    "  %d instances, %d optimal, %d fallbacks on optimal instances (%.1f%%), %d mismatches\n"
    corpus_size !optimal !fallbacks (100.0 *. rate) !mismatches;
  if !mismatches > 0 then Gate.fail "float-first and reference solver disagree";
  if rate > max_fallback_rate then
    Gate.fail "fallback rate %.1f%% exceeds the %.1f%% gate" (100.0 *. rate)
      (100.0 *. max_fallback_rate);
  Printf.printf "  certification gate passed (threshold %.1f%%)\n" (100.0 *. max_fallback_rate)
