(* CI gate for the float-first simplex path.

   Three properties over fixed seeded corpora of LPs:

   1. Soundness (hard): the float-first result must equal the seed
      solver's result exactly — same constructor, same rational
      objective.  The seed solver ([Lp_oracle], test-side) shares no
      code with the production simplex, and the exact checks guarantee
      agreement by construction, so any mismatch is a bug and fails the
      run outright.

   2. Effectiveness on optimal LPs (threshold): a float basis that fails
      certification is re-solved exactly — correct, but wasted work.  A
      regression that makes the float path give up too often (bad eps, a
      broken warm restart, an over-strict certificate) would silently
      erase the speedup this path exists for, so the fallback rate over
      the instances whose true answer is Optimal is gated.

   3. Effectiveness on infeasible LPs (threshold): a float claim of
      infeasibility is settled by a Farkas ray checked exactly, and only
      a ray that fails the check is re-solved.  The share of Infeasible
      verdicts that were not proven this way is gated the same way, so a
      box test that rejects valid rays cannot turn the proof off.  Float
      claims of unboundedness carry no certificate and are not counted.

   The corpora are seeded and the solver deterministic, so a rate is a
   constant of the code, not a flaky measurement; the gate leaves
   headroom above the current rates for eps retuning.

   The first corpus is random mixed LPs.  The second is shaped like the
   floorplanner's k-way assignment rows with branch-and-bound fixings:
   there phase 1 often ends with an artificial basic on a row whose
   non-zero columns are all at their upper bound or fixed, the case the
   simplex resolves with a degenerate exchange.  Both are solved cold,
   so their infeasible verdicts come from phase 1.  The third is
   branch-and-bound children: a root from either generator, then each
   one-bound change that cuts off the root's value of a variable,
   re-solved from the root's basis, so its infeasible verdicts come from
   the dual simplex.  A fourth, smaller corpus holds float infeasibility
   claims that are false by construction; it checks only property 1,
   which a Farkas check that accepts a wrong ray fails. *)

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

(* The solves one corpus draw yields: each with the bounds the oracle
   must use. *)
let cold model rng =
  let m = model rng in
  [ (m, None, Ilp.Simplex.solve_float_first (Ilp.Simplex.prepare m)) ]

(* A root from either generator, then one warm child per bound change
   that cuts off the root's value x of a variable, as branch and bound
   branches: its upper bound to ceil x - 1 when x is above its lower
   bound, its lower bound to floor x + 1 when x is below its upper
   bound.  The bounds are integers, so no child has a bound conflict. *)
let children rng =
  let m = if Prng.int rng 2 = 0 then random_model rng else assignment_model rng in
  let p = Ilp.Simplex.prepare m in
  let root = Ilp.Simplex.solve_float_first p in
  match (root.Ilp.Simplex.ff_result, root.Ilp.Simplex.ff_basis) with
  | Ilp.Simplex.Optimal s, Some warm ->
    let nv = Ilp.Model.num_vars m in
    let lbs = Array.init nv (Ilp.Model.var_lb m) and ubs = Array.init nv (Ilp.Model.var_ub m) in
    let with_bound j ~lb ~ub =
      let lbs = Array.copy lbs and ubs = Array.copy ubs in
      lbs.(j) <- lb;
      ubs.(j) <- ub;
      (lbs, ubs)
    in
    let int_plus b k = Rat.of_bigint (Bigint.add b (Bigint.of_int k)) in
    List.concat_map
      (fun j ->
        let x = s.Ilp.Simplex.values.(j) in
        let down =
          if Rat.compare x lbs.(j) > 0 then
            [ with_bound j ~lb:lbs.(j) ~ub:(Some (int_plus (Rat.ceil x) (-1))) ]
          else []
        in
        let up =
          match ubs.(j) with
          | Some u when Rat.compare x u >= 0 -> []
          | ub -> [ with_bound j ~lb:(int_plus (Rat.floor x) 1) ~ub ]
        in
        down @ up)
      (List.init nv Fun.id)
    |> List.map (fun bounds ->
           (m, Some bounds, Ilp.Simplex.solve_float_first ~bounds ~warm p))
  | _ -> []

(* Float infeasibility claims that exact arithmetic refutes: x_1..x_k in
   [0, 1] and z in [0, 10^e] on one row sum x_i + 10^-e z >= k, with e in
   9..11, costs c_i x_i + z minimized.  The root fixes z to 0, so every
   x_i sits at 1.  Each child fixes one x_i to 0 and loosens z: the row
   is then short by 1, and z, the only column that repairs it, has an
   entry below the float pivot tolerance, so the float path claims
   infeasibility.  The claim is false (z = 10^e closes the row): its ray
   must fail the Farkas check and the exact re-solve must agree with the
   oracle, so a check that accepts a wrong ray shows as a mismatch. *)
let refutable rng =
  let m = Ilp.Model.create () in
  let k = Prng.int_in rng 1 4 in
  let big = Rat.of_bigint (Bigint.pow (Bigint.of_int 10) (Prng.int_in rng 9 11)) in
  let x = List.init k (fun _ -> Ilp.Model.add_var m Ilp.Model.Continuous ~ub:Rat.one) in
  let z = Ilp.Model.add_var m Ilp.Model.Continuous ~ub:big in
  Ilp.Model.add_constraint m
    (Ilp.Linear.of_terms ((z, Rat.inv big) :: List.map (fun v -> (v, Rat.one)) x))
    Ilp.Model.Ge (Rat.of_int k);
  Ilp.Model.set_objective m Ilp.Model.Minimize
    (Ilp.Linear.of_terms ((z, Rat.one) :: List.map (fun v -> (v, Rat.of_int (Prng.int rng 6))) x));
  let p = Ilp.Simplex.prepare m in
  let lbs = Array.make (k + 1) Rat.zero in
  let fixing v =
    (lbs, Array.init (k + 1) (fun j -> if j = v then Some Rat.zero else Ilp.Model.var_ub m j))
  in
  match (Ilp.Simplex.solve_float_first ~bounds:(fixing z) p).Ilp.Simplex.ff_basis with
  | None -> []
  | Some warm ->
    List.map
      (fun v ->
        let bounds = fixing v in
        (m, Some bounds, Ilp.Simplex.solve_float_first ~bounds ~warm p))
      x

let check_corpus ~name ~seed ~size draw =
  let rng = Prng.create seed in
  let solves = ref 0 and optimal = ref 0 and fallbacks = ref 0 in
  let infeasible = ref 0 and unproven = ref 0 and mismatches = ref 0 in
  for i = 1 to size do
    List.iter
      (fun (m, bounds, ff) ->
        incr solves;
        match (ff.Ilp.Simplex.ff_result, Lp_oracle.solve ?bounds m) with
        | Ilp.Simplex.Optimal a, Ilp.Simplex.Optimal b ->
          incr optimal;
          if not ff.Ilp.Simplex.ff_certified then incr fallbacks;
          if not (Rat.equal a.Ilp.Simplex.objective b.Ilp.Simplex.objective) then begin
            incr mismatches;
            Printf.printf "  MISMATCH on %s draw %d: objectives differ\n" name i
          end
        | Ilp.Simplex.Infeasible, Ilp.Simplex.Infeasible ->
          incr infeasible;
          if not ff.Ilp.Simplex.ff_certified then incr unproven
        | Ilp.Simplex.Unbounded, Ilp.Simplex.Unbounded -> ()
        | _ ->
          incr mismatches;
          Printf.printf "  MISMATCH on %s draw %d: result constructors differ\n" name i)
      (draw rng)
  done;
  let rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  let opt_rate = rate !fallbacks !optimal and inf_rate = rate !unproven !infeasible in
  Printf.printf
    "  %s: %d solves, %d optimal, %d fallbacks on optimal (%.1f%%), %d infeasible, %d \
     Farkas-proven (%.1f%% unproven), %d mismatches\n"
    name !solves !optimal !fallbacks (100.0 *. opt_rate) !infeasible (!infeasible - !unproven)
    (100.0 *. inf_rate) !mismatches;
  if !mismatches > 0 then Gate.fail "%s: float-first and seed solver disagree" name;
  (opt_rate, inf_rate)

(* The fallback rates of a corpus whose float claims should settle. *)
let gate_rates name (opt_rate, inf_rate) =
  if opt_rate > max_fallback_rate then
    Gate.fail "%s: fallback rate %.1f%% exceeds the %.1f%% gate" name (100.0 *. opt_rate)
      (100.0 *. max_fallback_rate);
  if inf_rate > max_fallback_rate then
    Gate.fail "%s: %.1f%% of infeasible verdicts unproven by a Farkas ray, above the %.1f%% gate"
      name (100.0 *. inf_rate) (100.0 *. max_fallback_rate)

let run () =
  Exp_common.section "Float-first certification gate (seeded corpora)";
  gate_rates "random" (check_corpus ~name:"random" ~seed:20240806 ~size:400 (cold random_model));
  gate_rates "assignment"
    (check_corpus ~name:"assignment" ~seed:7 ~size:300 (cold assignment_model));
  gate_rates "warm children" (check_corpus ~name:"warm children" ~seed:19 ~size:200 children);
  (* Every refutable claim falls back by construction: no rate gate. *)
  ignore (check_corpus ~name:"refutable claims" ~seed:3 ~size:40 refutable);
  Printf.printf "  certification gate passed (threshold %.1f%%)\n" (100.0 *. max_fallback_rate)
