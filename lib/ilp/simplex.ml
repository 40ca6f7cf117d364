open Tapa_cs_util

type solution = { objective : Rat.t; values : Rat.t array; pivots : int }
type result = Optimal of solution | Infeasible | Unbounded

exception Pivot_limit

(* Pricing: Dantzig's rule (largest eligible reduced cost) for speed,
   falling back to Bland's rule (lowest index) after a pivot budget to
   guarantee termination on degenerate cycles. *)
let bland_switch = 400

(* ================================================================== *)
(* Prepared template + bounded-variable simplex (the exact path).      *)
(* ================================================================== *)

(* One model constraint, pre-lowered to dense form.  [coeffs] and [neg]
   are the +/- coefficient rows (both precomputed so a per-node sign
   normalization picks a row instead of allocating nv Rat.neg), and
   [fcoeffs]/[fneg] the same rows in doubles for the float tableau;
   [tvars]/[tcoefs] is the sparse view, its non-zero terms in variable
   order, used to re-shift the rhs under new lower bounds and by the
   certificates. *)
type prow = {
  coeffs : Rat.t array; (* length nv *)
  neg : Rat.t array;
  fcoeffs : float array;
  fneg : float array;
  tvars : int array;
  tcoefs : Rat.t array;
  rel : Model.relation;
  rhs : Rat.t;
  slack : int; (* slack/surplus column; -1 for Eq rows *)
  art : int; (* artificial column (used only when the node needs it) *)
}

type prepared = {
  nv : int;
  prows : prow array;
  slack_row : int array; (* the row of slack column [nv + k], at index k *)
  part_start : int; (* first artificial column *)
  pncols : int;
  base_lb : Rat.t array;
  base_ub : Rat.t option array;
  cost : Rat.t array; (* the objective as minimized, one entry per variable *)
  fcost : float array; (* [cost] in doubles, for the float tableau *)
  maximize : bool; (* [cost] is the model's objective negated *)
  obj_const : Rat.t; (* the objective's constant *)
}

let prepare model =
  let nv = Model.num_vars model in
  let constrs = Array.of_list (Model.constraints model) in
  let next_slack = ref nv in
  let slack_cols =
    Array.map
      (fun (_, rel, _) ->
        if rel <> Model.Eq then begin
          let c = !next_slack in
          incr next_slack;
          c
        end
        else -1)
      constrs
  in
  (* A [Le] row flips to [Ge] when its shifted rhs goes negative under some
     node's bounds, so every row gets a (possibly unused) artificial
     column: the layout must not depend on the bounds. *)
  let part_start = !next_slack in
  let pncols = part_start + Array.length constrs in
  let slack_row = Array.make (part_start - nv) (-1) in
  Array.iteri (fun i c -> if c >= 0 then slack_row.(c - nv) <- i) slack_cols;
  let prows =
    Array.mapi
      (fun i (e, rel, rhs) ->
        let terms = Array.of_list (Linear.terms e) in
        let coeffs = Array.make nv Rat.zero in
        Array.iter (fun (v, c) -> coeffs.(v) <- c) terms;
        let neg = Array.map Rat.neg coeffs in
        {
          coeffs;
          neg;
          fcoeffs = Array.map Rat.to_float coeffs;
          fneg = Array.map Rat.to_float neg;
          tvars = Array.map fst terms;
          tcoefs = Array.map snd terms;
          rel;
          rhs;
          slack = slack_cols.(i);
          art = part_start + i;
        })
      constrs
  in
  let sense, obj_expr = Model.objective model in
  let cost = Array.make nv Rat.zero in
  List.iter
    (fun (v, k) -> cost.(v) <- (match sense with Model.Minimize -> k | Model.Maximize -> Rat.neg k))
    (Linear.terms obj_expr);
  {
    nv;
    prows;
    slack_row;
    part_start;
    pncols;
    base_lb = Array.init nv (Model.var_lb model);
    base_ub = Array.init nv (Model.var_ub model);
    cost;
    fcost = Array.map Rat.to_float cost;
    maximize = sense = Model.Maximize;
    obj_const = Linear.const obj_expr;
  }

(* The model's objective at [values], from [cost]: an exact sum, so it
   equals [Linear.eval] of the objective in any order. *)
let objective_value p values =
  let acc = ref Rat.zero in
  Array.iteri (fun v c -> if not (Rat.is_zero c) then acc := Rat.add !acc (Rat.mul c values.(v))) p.cost;
  Rat.add p.obj_const (if p.maximize then Rat.neg !acc else !acc)

(* Node-specific variable bounds, computed exactly once per solve and
   shared by whichever tableau runs and the certificates: the lower
   bounds, the upper bounds shifted by them, and whether some upper bound
   lies below its lower bound. *)
let node_bounds p bounds =
  (* Read-only below: alias the node's arrays instead of copying them,
     two allocations saved per LP solve on the branch-and-bound hot path. *)
  let lb, ub =
    match bounds with Some (l, u) -> (l, u) | None -> (p.base_lb, p.base_ub)
  in
  let conflict = ref false in
  let shifted_ub =
    Array.init p.nv (fun j ->
        match ub.(j) with
        | None -> None
        | Some u when Rat.is_zero lb.(j) ->
          if Rat.sign u < 0 then conflict := true;
          ub.(j)
        | Some u ->
          let d = Rat.sub u lb.(j) in
          if Rat.sign d < 0 then conflict := true;
          Some d)
  in
  (lb, shifted_ub, !conflict)

(* Each row's rhs less the exact lower-bound shift, over the shifted
   variables x - lb, in the template's orientation.  Computed once per
   solve: both tableaus orient their rows by its sign, and the
   certificates read it as it is. *)
let shifted_rhs p lb =
  (* Most lower bounds are zero (free or 0-fixed binaries), so guard the
     Rat.mul: exact-rational ops dominate the per-node cost. *)
  Array.map
    (fun pr ->
      let acc = ref pr.rhs in
      for q = 0 to Array.length pr.tvars - 1 do
        let l = lb.(pr.tvars.(q)) in
        if not (Rat.is_zero l) then acc := Rat.sub !acc (Rat.mul pr.tcoefs.(q) l)
      done;
      !acc)
    p.prows

(* A variable fixed by its bounds (shifted ub = 0) stays glued to 0;
   excluding its column from pricing removes it from the search entirely
   — the incremental payoff deep in the branch-and-bound tree, where most
   binaries are fixed. *)
let is_fixed shifted_ub nv j =
  j < nv && match shifted_ub.(j) with Some u -> Rat.is_zero u | None -> false

(* Whether row [i] is laid negated: a negative shifted rhs flips the row
   and its relation, so every row starts with a nonnegative basic value.
   The exact and the float tableau both decide it here, in Rat, so the
   two can never disagree on a row's sign. *)
let flipped rhs i = Rat.sign rhs.(i) < 0

let oriented_rel pr ~flip =
  if not flip then pr.rel
  else match pr.rel with Model.Le -> Model.Ge | Model.Ge -> Model.Le | Model.Eq -> Model.Eq

(* Lay every oriented template row into a fresh tableau: the structural
   coefficients blitted from the template row [src] picks (the +/- Rat
   rows or their float copies), then a basic slack on a [Le] row, or a
   basic artificial on a [Ge] row (after its surplus) or an [Eq] row,
   and the [conv]erted |rhs| as the basic value.  Returns how many
   artificials start basic. *)
let lay_rows p ~rhs ~src ~conv ~one ~minus_one rows xb basis =
  let nart = ref 0 in
  Array.iteri
    (fun i pr ->
      let flip = flipped rhs i in
      let row = rows.(i) in
      Array.blit (src pr flip) 0 row 0 p.nv;
      (* A row narrower than [pncols] has no artificial block. *)
      let lay_art () =
        if pr.art < Array.length row then row.(pr.art) <- one;
        basis.(i) <- pr.art;
        incr nart
      in
      (match oriented_rel pr ~flip with
      | Model.Le ->
        row.(pr.slack) <- one;
        basis.(i) <- pr.slack
      | Model.Ge ->
        row.(pr.slack) <- minus_one;
        lay_art ()
      | Model.Eq -> lay_art ());
      xb.(i) <- conv (Rat.abs rhs.(i)))
    p.prows;
  !nart

(* After phase 1, the column that replaces the basic artificial (at value
   zero) of [row]: the first [nonzero] entry at its lower bound and not
   fixed, else the first [nonzero] entry at all, which then sits at its
   upper bound or is fixed.  Either exchange is degenerate: the
   artificial leaves at zero and the entering column keeps its current
   value, so no variable moves.  -1 when [row] has no [nonzero] entry. *)
let exchange_col p ~nonzero ~at_upper ~fixed row =
  let col = ref (-1) and stuck = ref (-1) in
  let j = ref 0 in
  while !col < 0 && !j < p.part_start do
    if nonzero row.(!j) then begin
      if (not at_upper.(!j)) && not (fixed !j) then col := !j
      else if !stuck < 0 then stuck := !j
    end;
    incr j
  done;
  if !col >= 0 then !col else !stuck

(* Working tableau of the bounded-variable simplex.  The rhs is NOT part
   of the coefficient rows: [bxb] holds the current values of the basic
   variables directly (with the contributions of nonbasic-at-upper
   columns folded in), so pivoting touches only the coefficient matrix
   and the step logic updates the values. *)
type btab = {
  mutable brows : Rat.t array array; (* m x ncols, B^-1 A *)
  mutable bxb : Rat.t array; (* current basic values *)
  mutable bbasis : int array;
  bobj : Rat.t array; (* reduced costs, length ncols *)
  bubs : Rat.t option array; (* per-column upper bound (structural only) *)
  at_upper : bool array; (* nonbasic column currently at its upper bound *)
  mutable bncols : int; (* active column window; shrinks to [part_start]
                           once the artificial block can no longer enter *)
  mutable iters : int; (* pivots + bound flips *)
  max_iters : int;
}

let bpivot tab r c =
  tab.iters <- tab.iters + 1;
  if tab.iters > tab.max_iters then raise Pivot_limit;
  let row = tab.brows.(r) in
  let p = row.(c) in
  let n = tab.bncols in
  for j = 0 to n - 1 do
    row.(j) <- Rat.div row.(j) p
  done;
  let eliminate target =
    let f = target.(c) in
    if not (Rat.is_zero f) then
      for j = 0 to n - 1 do
        target.(j) <- Rat.sub target.(j) (Rat.mul f row.(j))
      done
  in
  Array.iteri (fun i other -> if i <> r then eliminate other) tab.brows;
  eliminate tab.bobj;
  tab.bbasis.(r) <- c

(* Minimize bobj.x.  A nonbasic column is eligible when moving it off its
   current bound improves the objective: reduced cost < 0 at lower, > 0
   at upper.  Basic columns keep reduced cost 0, so they are never
   selected.  The ratio test additionally considers (a) the entering
   variable reaching its own opposite bound — a bound flip, O(m) value
   updates and no pivot — and (b) a basic variable climbing to its upper
   bound (it then leaves the basis AT that bound). *)
let boptimize tab ~allowed =
  let start = tab.iters in
  let rec step () =
    let m = Array.length tab.brows in
    let bland = tab.iters - start > bland_switch in
    let eligible j =
      allowed j
      &&
      let s = Rat.sign tab.bobj.(j) in
      if tab.at_upper.(j) then s > 0 else s < 0
    in
    let entering = ref (-1) in
    if bland then begin
      let j = ref 0 in
      while !entering < 0 && !j < tab.bncols do
        if eligible !j then entering := !j;
        incr j
      done
    end
    else begin
      let best = ref Rat.zero in
      for j = 0 to tab.bncols - 1 do
        if eligible j then begin
          let score = Rat.abs tab.bobj.(j) in
          if Rat.compare score !best > 0 then begin
            best := score;
            entering := j
          end
        end
      done
    end;
    if !entering < 0 then `Optimal
    else begin
      let e = !entering in
      let from_upper = tab.at_upper.(e) in
      (* The entering variable moves distance t >= 0 away from its bound;
         the effective column of that motion is +col from lower, -col
         from upper. *)
      let best_row = ref (-1) in
      let best_t = ref Rat.zero in
      let leave_at_upper = ref false in
      for i = 0 to m - 1 do
        let a0 = tab.brows.(i).(e) in
        let a = if from_upper then Rat.neg a0 else a0 in
        let s = Rat.sign a in
        if s > 0 then begin
          (* basic i decreases toward 0 *)
          let t = Rat.div tab.bxb.(i) a in
          let better =
            !best_row < 0
            || Rat.compare t !best_t < 0
            || (Rat.compare t !best_t = 0 && tab.bbasis.(i) < tab.bbasis.(!best_row))
          in
          if better then begin
            best_row := i;
            best_t := t;
            leave_at_upper := false
          end
        end
        else if s < 0 then begin
          match tab.bubs.(tab.bbasis.(i)) with
          | Some u ->
            (* basic i increases toward its upper bound *)
            let t = Rat.div (Rat.sub u tab.bxb.(i)) (Rat.neg a) in
            let better =
              !best_row < 0
              || Rat.compare t !best_t < 0
              || (Rat.compare t !best_t = 0 && tab.bbasis.(i) < tab.bbasis.(!best_row))
            in
            if better then begin
              best_row := i;
              best_t := t;
              leave_at_upper := true
            end
          | None -> ()
        end
      done;
      let flip =
        match tab.bubs.(e) with
        | Some u -> !best_row < 0 || Rat.compare u !best_t <= 0
        | None -> false
      in
      if flip then begin
        tab.iters <- tab.iters + 1;
        if tab.iters > tab.max_iters then raise Pivot_limit;
        let u = Option.get tab.bubs.(e) in
        let delta = if from_upper then Rat.neg u else u in
        for i = 0 to m - 1 do
          let a0 = tab.brows.(i).(e) in
          if not (Rat.is_zero a0) then tab.bxb.(i) <- Rat.sub tab.bxb.(i) (Rat.mul delta a0)
        done;
        tab.at_upper.(e) <- not from_upper;
        step ()
      end
      else if !best_row < 0 then `Unbounded
      else begin
        let r = !best_row and t = !best_t in
        let lv = tab.bbasis.(r) in
        let delta = if from_upper then Rat.neg t else t in
        if not (Rat.is_zero delta) then
          for i = 0 to m - 1 do
            if i <> r then begin
              let a0 = tab.brows.(i).(e) in
              if not (Rat.is_zero a0) then tab.bxb.(i) <- Rat.sub tab.bxb.(i) (Rat.mul delta a0)
            end
          done;
        let enter_val = if from_upper then Rat.sub (Option.get tab.bubs.(e)) t else t in
        bpivot tab r e;
        tab.bxb.(r) <- enter_val;
        tab.at_upper.(lv) <- !leave_at_upper;
        tab.at_upper.(e) <- false;
        step ()
      end
    end
  in
  step ()

(* The exact two-phase solve of one node whose bounds passed
   [node_bounds] without a conflict. *)
let solve_exact p ~lb ~rhs ~shifted_ub ~max_pivots =
  let nv = p.nv in
  let m0 = Array.length p.prows in
  let ncols = p.pncols in
  let tab =
    {
      brows = Array.init m0 (fun _ -> Array.make ncols Rat.zero);
      bxb = Array.make m0 Rat.zero;
      bbasis = Array.make m0 (-1);
      bobj = Array.make ncols Rat.zero;
      bubs = Array.make ncols None;
      at_upper = Array.make ncols false;
      bncols = ncols;
      iters = 0;
      max_iters = max_pivots;
    }
  in
  Array.blit shifted_ub 0 tab.bubs 0 nv;
  let fixed = is_fixed shifted_ub nv in
  let nart_basic =
    lay_rows p ~rhs
      ~src:(fun pr flip -> if flip then pr.neg else pr.coeffs)
      ~conv:Fun.id ~one:Rat.one ~minus_one:Rat.minus_one tab.brows tab.bxb tab.bbasis
  in
  (* Phase 1: minimize the sum of artificials (cost 1 each, priced out
     over the initial basis so basic artificials start at reduced cost
     zero). *)
  let feasible =
    if nart_basic = 0 then true
    else begin
      for j = p.part_start to ncols - 1 do
        tab.bobj.(j) <- Rat.one
      done;
      Array.iteri
        (fun i b ->
          if b >= p.part_start then begin
            let row = tab.brows.(i) in
            for j = 0 to ncols - 1 do
              tab.bobj.(j) <- Rat.sub tab.bobj.(j) row.(j)
            done
          end)
        tab.bbasis;
      (match boptimize tab ~allowed:(fun j -> not (fixed j)) with
      | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
      | `Optimal -> ());
      (* Artificials have no upper bound, so nonbasic ones sit at 0 and
         the phase-1 objective is exactly the sum of basic artificial
         values. *)
      let infeas = ref Rat.zero in
      Array.iteri
        (fun i b -> if b >= p.part_start then infeas := Rat.add !infeas tab.bxb.(i))
        tab.bbasis;
      Rat.is_zero !infeas
    end
  in
  if not feasible then Infeasible
  else begin
    if nart_basic > 0 then begin
      (* Exchange every basic artificial (at value zero) for a structural
         or slack column, or drop its row when it is all zero there
         (redundant). *)
      let keep = ref [] in
      Array.iteri
        (fun i b ->
          if b < p.part_start then keep := i :: !keep
          else begin
            let c =
              exchange_col p ~nonzero:(fun a -> not (Rat.is_zero a)) ~at_upper:tab.at_upper
                ~fixed tab.brows.(i)
            in
            if c >= 0 then begin
              let value = if tab.at_upper.(c) then Option.get tab.bubs.(c) else Rat.zero in
              bpivot tab i c;
              tab.bxb.(i) <- value;
              tab.at_upper.(c) <- false;
              keep := i :: !keep
            end
          end)
        tab.bbasis;
      let keep = Array.of_list (List.rev !keep) in
      if Array.length keep <> m0 then begin
        tab.brows <- Array.map (fun i -> tab.brows.(i)) keep;
        tab.bxb <- Array.map (fun i -> tab.bxb.(i)) keep;
        tab.bbasis <- Array.map (fun i -> tab.bbasis.(i)) keep
      end
    end;
    (* Every artificial is now out of the basis (or its row dropped), and
       phase 2 never lets one re-enter, so the artificial block can no
       longer influence anything: shrink the active column window and
       spare every pivot/elimination loop the all-zero tail.  On the
       all-[Le] models branch-and-bound produces this skips the block
       from the very first pivot. *)
    tab.bncols <- p.part_start;
    (* Phase 2: install the minimized objective, priced out over the
       basis.  Stale phase-1 entries past the window are unreachable. *)
    Array.blit p.cost 0 tab.bobj 0 nv;
    Array.fill tab.bobj nv (p.part_start - nv) Rat.zero;
    Array.iteri
      (fun i b ->
        if b < nv && not (Rat.is_zero p.cost.(b)) then begin
          let cb = p.cost.(b) and row = tab.brows.(i) in
          for j = 0 to p.part_start - 1 do
            tab.bobj.(j) <- Rat.sub tab.bobj.(j) (Rat.mul cb row.(j))
          done
        end)
      tab.bbasis;
    match boptimize tab ~allowed:(fun j -> j < p.part_start && not (fixed j)) with
    | `Unbounded -> Unbounded
    | `Optimal ->
      let values =
        Array.init nv (fun j ->
            if tab.at_upper.(j) then Rat.add lb.(j) (Option.get shifted_ub.(j)) else lb.(j))
      in
      Array.iteri (fun i b -> if b < nv then values.(b) <- Rat.add lb.(b) tab.bxb.(i)) tab.bbasis;
      Optimal { objective = objective_value p values; values; pivots = tab.iters }
  end

let solve_prepared ?bounds ?(max_pivots = 2_000_000) p =
  let lb, shifted_ub, conflict = node_bounds p bounds in
  if conflict then Infeasible
  else solve_exact p ~lb ~rhs:(shifted_rhs p lb) ~shifted_ub ~max_pivots

(* ================================================================== *)
(* Float-first path: double-precision simplex proposes, exact rational *)
(* arithmetic checks.                                                  *)
(*                                                                     *)
(* The float tableau is a structural mirror of the bounded-variable    *)
(* solver above (same column layout, same sign normalization, same     *)
(* two-phase structure) but runs in doubles with epsilon tolerances.   *)
(* Nothing it computes is trusted: the only things taken from it are   *)
(* its final basis (one column per row plus the at-upper flags) and,   *)
(* when it claims infeasibility, which basic columns carry the claim.  *)
(* Both are re-checked from scratch in Rat.t on the basis's structural *)
(* block: an optimal basis by its exact primal and dual feasibility, an *)
(* infeasibility claim by a Farkas ray.  A failed check, a numerical   *)
(* failure or a float-claimed unboundedness routes to the exact       *)
(* solver, so results are exact regardless of floating-point behaviour. *)
(* ================================================================== *)

type basis = {
  bcols : int array; (* basic column of each template row *)
  bupper : bool array; (* per-column nonbasic-at-upper-bound flags *)
}

(* A float infeasibility claim: a basis and one cost per basic column,
   whose multipliers y = B^-T cost are the candidate Farkas ray.  The
   dual simplex's unrepairable row puts cost 1 on that row's basic
   column (y is then the row of B^-1); a phase 1 that ends infeasible
   puts cost 1 on every artificial, its own objective (y is then its
   final duals). *)
type claim = { claim_cols : int array; claim_cost : Rat.t array }

(* Any situation the float path does not model (redundant rows that the
   exact path would drop, singular warm bases, iteration exhaustion,
   tiny pivots) — abandon the float attempt, never guess. *)
exception Float_give_up

let f_feas_eps = 1e-7 (* primal feasibility / phase-1 residual tolerance *)
let f_cost_eps = 1e-9 (* reduced-cost sign tolerance *)
let f_piv_eps = 1e-8 (* minimum acceptable pivot magnitude *)

type ftab = {
  frows : float array array; (* m x ncols, B^-1 A *)
  fxb : float array; (* current basic values *)
  fbasis : int array;
  fobj : float array; (* reduced costs *)
  fubs : float array; (* per-column upper bound; infinity when none *)
  fupper : bool array;
  fnz : int array; (* scratch: the pivot row's non-zero columns *)
  mutable fncols : int; (* active column window; shrinks to [part_start]
                           once no artificial can re-enter the basis *)
  mutable fiters : int;
  fmax : int;
}

let f_tick tab =
  tab.fiters <- tab.fiters + 1;
  if tab.fiters > tab.fmax then raise Float_give_up

(* Sparse pivoting.  A pivot row holds few non-zeros (a bisection row has
   3 structural entries and a slack), so [fpivot] and [fginstall] divide
   and eliminate over the row's non-zero columns only, collected once.
   A skipped column j has row.(j) = +/-0, where the dense update would
   compute x /. p and x -. f *. 0.: for finite p and f these leave every
   non-zero entry bit-identical and every zero a zero, only perhaps of
   the other sign, and nothing in the float path reads the sign of a
   zero (see DESIGN §5e).  [inf *. 0.] is NaN, so the identity needs a
   finite pivot and finite multipliers: a tableau that holds anything
   else is abandoned like a tiny pivot. *)
let nonzero_cols tab row =
  let nz = tab.fnz in
  let k = ref 0 in
  for j = 0 to tab.fncols - 1 do
    if row.(j) <> 0. then begin
      nz.(!k) <- j;
      incr k
    end
  done;
  !k

(* Divide the pivot row [r] by its entry in column [c] over its [k]
   non-zero columns; returns the pivot. *)
let fdivide tab r c k =
  let row = tab.frows.(r) in
  let p = row.(c) in
  if Float.abs p < f_piv_eps || not (Float.is_finite p) then raise Float_give_up;
  let nz = tab.fnz in
  for q = 0 to k - 1 do
    let j = nz.(q) in
    row.(j) <- row.(j) /. p
  done;
  p

(* target <- target - f * row over the row's [k] non-zero columns. *)
let feliminate tab target f row k =
  if not (Float.is_finite f) then raise Float_give_up;
  let nz = tab.fnz in
  for q = 0 to k - 1 do
    let j = nz.(q) in
    target.(j) <- target.(j) -. (f *. row.(j))
  done

let fpivot tab r c =
  f_tick tab;
  let k = nonzero_cols tab tab.frows.(r) in
  ignore (fdivide tab r c k);
  let row = tab.frows.(r) in
  for i = 0 to Array.length tab.frows - 1 do
    let other = tab.frows.(i) in
    let f = other.(c) in
    if i <> r && f <> 0. then feliminate tab other f row k
  done;
  let f = tab.fobj.(c) in
  if f <> 0. then feliminate tab tab.fobj f row k;
  tab.fbasis.(r) <- c

(* Gaussian pivot used while installing a warm basis: the rhs column is
   transformed alongside the rows (valid because at-upper contributions
   are already folded into [fxb] and no bound status changes during the
   install). *)
let fginstall tab r c =
  f_tick tab;
  let k = nonzero_cols tab tab.frows.(r) in
  let p = fdivide tab r c k in
  let row = tab.frows.(r) in
  tab.fxb.(r) <- tab.fxb.(r) /. p;
  for i = 0 to Array.length tab.frows - 1 do
    let other = tab.frows.(i) in
    let f = other.(c) in
    if i <> r && f <> 0. then begin
      feliminate tab other f row k;
      tab.fxb.(i) <- tab.fxb.(i) -. (f *. tab.fxb.(r))
    end
  done;
  tab.fbasis.(r) <- c

(* Primal bounded-variable simplex in floats; mirrors [boptimize]. *)
let foptimize tab ~allowed =
  let start = tab.fiters in
  let m = Array.length tab.frows in
  let rec step () =
    let bland = tab.fiters - start > bland_switch in
    let eligible j =
      allowed j
      &&
      let d = tab.fobj.(j) in
      if tab.fupper.(j) then d > f_cost_eps else d < -.f_cost_eps
    in
    let entering = ref (-1) in
    if bland then begin
      let j = ref 0 in
      while !entering < 0 && !j < tab.fncols do
        if eligible !j then entering := !j;
        incr j
      done
    end
    else begin
      let best = ref 0. in
      for j = 0 to tab.fncols - 1 do
        if eligible j then begin
          let score = Float.abs tab.fobj.(j) in
          if score > !best then begin
            best := score;
            entering := j
          end
        end
      done
    end;
    if !entering < 0 then `Optimal
    else begin
      let e = !entering in
      let from_upper = tab.fupper.(e) in
      let best_row = ref (-1) in
      let best_t = ref 0. in
      let leave_at_upper = ref false in
      for i = 0 to m - 1 do
        let a0 = tab.frows.(i).(e) in
        let a = if from_upper then -.a0 else a0 in
        if a > f_piv_eps then begin
          let t = Float.max 0. (tab.fxb.(i) /. a) in
          let better =
            !best_row < 0
            || t < !best_t
            || (t = !best_t && tab.fbasis.(i) < tab.fbasis.(!best_row))
          in
          if better then begin
            best_row := i;
            best_t := t;
            leave_at_upper := false
          end
        end
        else if a < -.f_piv_eps then begin
          let u = tab.fubs.(tab.fbasis.(i)) in
          if u < infinity then begin
            let t = Float.max 0. ((u -. tab.fxb.(i)) /. -.a) in
            let better =
              !best_row < 0
              || t < !best_t
              || (t = !best_t && tab.fbasis.(i) < tab.fbasis.(!best_row))
            in
            if better then begin
              best_row := i;
              best_t := t;
              leave_at_upper := true
            end
          end
        end
      done;
      let u_e = tab.fubs.(e) in
      let flip = u_e < infinity && (!best_row < 0 || u_e <= !best_t) in
      if flip then begin
        f_tick tab;
        let delta = if from_upper then -.u_e else u_e in
        for i = 0 to m - 1 do
          let a0 = tab.frows.(i).(e) in
          if a0 <> 0. then tab.fxb.(i) <- tab.fxb.(i) -. (delta *. a0)
        done;
        tab.fupper.(e) <- not from_upper;
        step ()
      end
      else if !best_row < 0 then `Unbounded
      else begin
        let r = !best_row and t = !best_t in
        let lv = tab.fbasis.(r) in
        let delta = if from_upper then -.t else t in
        if delta <> 0. then
          for i = 0 to m - 1 do
            if i <> r then begin
              let a0 = tab.frows.(i).(e) in
              if a0 <> 0. then tab.fxb.(i) <- tab.fxb.(i) -. (delta *. a0)
            end
          done;
        let enter_val = if from_upper then u_e -. t else t in
        fpivot tab r e;
        tab.fxb.(r) <- enter_val;
        tab.fupper.(lv) <- !leave_at_upper;
        tab.fupper.(e) <- false;
        step ()
      end
    end
  in
  step ()

(* Dual simplex: repair primal feasibility of a dual-feasible basis after
   bound changes.  Leaving row = most violated basic (below 0 or above its
   upper bound); entering column = minimum |reduced cost| / |pivot| ratio
   among columns whose sign keeps the cost row dual-feasible.  When the
   dual step would push the entering variable past its own opposite bound
   it bound-flips instead (standard bounded-variable dual step). *)
let fdual tab ~allowed =
  let m = Array.length tab.frows in
  let rec step () =
    let r = ref (-1) in
    let viol = ref f_feas_eps in
    let over = ref false in
    for i = 0 to m - 1 do
      let x = tab.fxb.(i) in
      if -.x > !viol then begin
        r := i;
        viol := -.x;
        over := false
      end;
      let u = tab.fubs.(tab.fbasis.(i)) in
      if u < infinity && x -. u > !viol then begin
        r := i;
        viol := x -. u;
        over := true
      end
    done;
    if !r < 0 then `Feasible
    else begin
      let r = !r in
      let row = tab.frows.(r) in
      let leaving = tab.fbasis.(r) in
      let best = ref (-1) in
      let best_ratio = ref infinity in
      for j = 0 to tab.fncols - 1 do
        if allowed j && j <> leaving then begin
          let a = row.(j) in
          let eligible, denom =
            if !over then
              if tab.fupper.(j) then (a < -.f_piv_eps, -.a) else (a > f_piv_eps, a)
            else if tab.fupper.(j) then (a > f_piv_eps, a)
            else (a < -.f_piv_eps, -.a)
          in
          if eligible then begin
            let ratio = Float.abs tab.fobj.(j) /. denom in
            if ratio < !best_ratio then begin
              best_ratio := ratio;
              best := j
            end
          end
        end
      done;
      if !best < 0 then `Infeasible r (* dual unbounded: no primal solution *)
      else begin
        let e = !best in
        let from_upper = tab.fupper.(e) in
        let a_re = row.(e) in
        let a = if from_upper then -.a_re else a_re in
        let target = if !over then tab.fubs.(leaving) else 0. in
        let t = (tab.fxb.(r) -. target) /. a in
        let u_e = tab.fubs.(e) in
        if u_e < infinity && t > u_e +. f_feas_eps then begin
          (* Entering would overshoot its opposite bound: flip it and
             re-examine the still-violated row. *)
          f_tick tab;
          let delta = if from_upper then -.u_e else u_e in
          for i = 0 to m - 1 do
            let a0 = tab.frows.(i).(e) in
            if a0 <> 0. then tab.fxb.(i) <- tab.fxb.(i) -. (delta *. a0)
          done;
          tab.fupper.(e) <- not from_upper;
          step ()
        end
        else begin
          let delta = if from_upper then -.t else t in
          for i = 0 to m - 1 do
            if i <> r then begin
              let a0 = tab.frows.(i).(e) in
              if a0 <> 0. then tab.fxb.(i) <- tab.fxb.(i) -. (delta *. a0)
            end
          done;
          let enter_val = if from_upper then u_e -. t else t in
          fpivot tab r e;
          tab.fxb.(r) <- enter_val;
          tab.fupper.(leaving) <- !over;
          tab.fupper.(e) <- false;
          step ()
        end
      end
    end
  in
  step ()

(* Build the float tableau in the exact path's orientation ([flipped]
   decides it in Rat, so it can never disagree with the exact path),
   its rows blitted from the template's float rows, [ncols] wide: the
   full layout, or [part_start] for a solve that never reads the
   artificial block. *)
let build_ftab p ~ncols ~rhs ~shifted_ub ~max_iters =
  let m0 = Array.length p.prows in
  let tab =
    {
      frows = Array.init m0 (fun _ -> Array.make ncols 0.);
      fxb = Array.make m0 0.;
      fbasis = Array.make m0 (-1);
      fobj = Array.make ncols 0.;
      fubs = Array.make ncols infinity;
      (* Full width whatever [ncols]: the flags leave in the basis. *)
      fupper = Array.make p.pncols false;
      fnz = Array.make ncols 0;
      fncols = ncols;
      fiters = 0;
      fmax = max_iters;
    }
  in
  Array.iteri
    (fun j u -> match u with Some u -> tab.fubs.(j) <- Rat.to_float u | None -> ())
    shifted_ub;
  let nart_basic =
    lay_rows p ~rhs
      ~src:(fun pr flip -> if flip then pr.fneg else pr.fcoeffs)
      ~conv:Rat.to_float ~one:1. ~minus_one:(-1.) tab.frows tab.fxb tab.fbasis
  in
  (tab, nart_basic)

let finstall_objective p tab =
  Array.blit p.fcost 0 tab.fobj 0 p.nv;
  Array.fill tab.fobj p.nv (tab.fncols - p.nv) 0.;
  Array.iteri
    (fun i b ->
      let cb = if b < p.nv then p.fcost.(b) else 0. in
      if cb <> 0. then begin
        let row = tab.frows.(i) in
        for j = 0 to tab.fncols - 1 do
          tab.fobj.(j) <- tab.fobj.(j) -. (cb *. row.(j))
        done
      end)
    tab.fbasis

let fextract_basis tab =
  { bcols = Array.copy tab.fbasis; bupper = Array.copy tab.fupper }

(* Cold float solve: two-phase, mirroring [solve_exact], including its
   exchange of basic artificials after phase 1.  Returns the proposed
   optimal basis or an (untrusted) infeasible/unbounded claim; an
   infeasible one carries the final phase-1 basis.  A row with no entry
   above [f_piv_eps] gives up instead of being dropped: certification
   needs one basic column per template row. *)
let fsolve_cold p ~rhs ~shifted_ub ~max_iters =
  let tab, nart_basic = build_ftab p ~ncols:p.pncols ~rhs ~shifted_ub ~max_iters in
  let fixed = is_fixed shifted_ub p.nv in
  let feasible =
    if nart_basic = 0 then true
    else begin
      for j = p.part_start to tab.fncols - 1 do
        tab.fobj.(j) <- 1.
      done;
      Array.iteri
        (fun i b ->
          if b >= p.part_start then begin
            let row = tab.frows.(i) in
            for j = 0 to tab.fncols - 1 do
              tab.fobj.(j) <- tab.fobj.(j) -. row.(j)
            done
          end)
        tab.fbasis;
      (match foptimize tab ~allowed:(fun j -> not (fixed j)) with
      | `Unbounded -> raise Float_give_up
      | `Optimal -> ());
      let infeas = ref 0. in
      Array.iteri
        (fun i b -> if b >= p.part_start then infeas := !infeas +. Float.abs tab.fxb.(i))
        tab.fbasis;
      !infeas <= f_feas_eps
    end
  in
  if not feasible then
    `Infeasible
      {
        claim_cols = Array.copy tab.fbasis;
        claim_cost =
          Array.map (fun c -> if c >= p.part_start then Rat.one else Rat.zero) tab.fbasis;
      }
  else begin
    if nart_basic > 0 then
      Array.iteri
        (fun i b ->
          if b >= p.part_start then begin
            let c =
              exchange_col p ~nonzero:(fun a -> Float.abs a > f_piv_eps) ~at_upper:tab.fupper
                ~fixed tab.frows.(i)
            in
            if c < 0 then raise Float_give_up;
            let value = if tab.fupper.(c) then tab.fubs.(c) else 0. in
            fpivot tab i c;
            tab.fxb.(i) <- value;
            tab.fupper.(c) <- false
          end)
        tab.fbasis;
    (* No artificial is basic any more and phase 2 never re-admits one:
       drop the artificial block from the active window. *)
    tab.fncols <- p.part_start;
    finstall_objective p tab;
    match foptimize tab ~allowed:(fun j -> j < p.part_start && not (fixed j)) with
    | `Unbounded -> `Unbounded
    | `Optimal -> `Basis (fextract_basis tab, tab.fiters)
  end

(* Warm float solve: re-install a parent basis (dual-feasible after a
   branching bound change), fold the at-upper contributions into the rhs,
   run the dual simplex until primal feasible, then finish with the
   primal phase.  Phase 1 is skipped entirely. *)
let fsolve_warm p warm ~rhs ~shifted_ub ~max_iters =
  let m0 = Array.length p.prows in
  if Array.length warm.bcols <> m0 then raise Float_give_up;
  Array.iter (fun c -> if c < 0 || c >= p.part_start then raise Float_give_up) warm.bcols;
  (* The warm basis uses only structural/slack columns (checked above),
     so the artificial block is never read, and not allocated. *)
  let tab, _ = build_ftab p ~ncols:p.part_start ~rhs ~shifted_ub ~max_iters in
  let fixed = is_fixed shifted_ub p.nv in
  let is_basic = Array.make p.part_start false in
  Array.iter
    (fun c ->
      if is_basic.(c) then raise Float_give_up;
      is_basic.(c) <- true)
    warm.bcols;
  for j = 0 to p.nv - 1 do
    if warm.bupper.(j) && not is_basic.(j) then begin
      let u = tab.fubs.(j) in
      if u < infinity then begin
        if u <> 0. then
          for i = 0 to m0 - 1 do
            tab.fxb.(i) <- tab.fxb.(i) -. (u *. tab.frows.(i).(j))
          done;
        tab.fupper.(j) <- true
      end
    end
  done;
  let assigned = Array.make m0 false in
  Array.iter
    (fun c ->
      let best = ref (-1) in
      let best_mag = ref 0. in
      for r = 0 to m0 - 1 do
        if not assigned.(r) then begin
          let a = Float.abs tab.frows.(r).(c) in
          if a > !best_mag then begin
            best := r;
            best_mag := a
          end
        end
      done;
      if !best < 0 || !best_mag < f_piv_eps then raise Float_give_up;
      assigned.(!best) <- true;
      fginstall tab !best c)
    warm.bcols;
  finstall_objective p tab;
  let allowed j = j < p.part_start && not (fixed j) in
  match fdual tab ~allowed with
  | `Infeasible r ->
    `Infeasible
      {
        claim_cols = Array.copy tab.fbasis;
        claim_cost = Array.init m0 (fun k -> if k = r then Rat.one else Rat.zero);
      }
  | `Feasible -> (
    match foptimize tab ~allowed with
    | `Unbounded -> `Unbounded
    | `Optimal -> `Basis (fextract_basis tab, tab.fiters))

(* ------------------------------------------------------------------ *)
(* Exact certificates on the basis's structural block.                 *)
(* ------------------------------------------------------------------ *)

(* Dense LU with partial pivoting over Rat, preferring +/-1 pivots (a
   unit pivot divides nothing, so it adds no fraction growth).  Returns
   the row permutation, or None when the matrix is singular.  The
   factors overwrite [a]: L below the diagonal (unit diagonal implicit),
   U on and above.  Each elimination runs over the pivot row's non-zero
   columns, collected once per step: the blocks are mostly zeros. *)
let lu_factor a =
  let m = Array.length a in
  let perm = Array.init m (fun i -> i) in
  let nz = Array.make m 0 in
  let rec step k =
    if k = m then Some perm
    else begin
      let first = ref (-1) and unit = ref (-1) in
      let i = ref k in
      while !unit < 0 && !i < m do
        let v = a.(!i).(k) in
        if not (Rat.is_zero v) then begin
          if !first < 0 then first := !i;
          if Rat.equal v Rat.one || Rat.equal v Rat.minus_one then unit := !i
        end;
        incr i
      done;
      let r = if !unit >= 0 then !unit else !first in
      if r < 0 then None
      else begin
        if r <> k then begin
          let tmp = a.(k) in
          a.(k) <- a.(r);
          a.(r) <- tmp;
          let tp = perm.(k) in
          perm.(k) <- perm.(r);
          perm.(r) <- tp
        end;
        let pk = a.(k) in
        let piv = pk.(k) in
        let cnt = ref 0 in
        for j = k + 1 to m - 1 do
          if not (Rat.is_zero pk.(j)) then begin
            nz.(!cnt) <- j;
            incr cnt
          end
        done;
        for i = k + 1 to m - 1 do
          let ai = a.(i) in
          if not (Rat.is_zero ai.(k)) then begin
            let f = Rat.div ai.(k) piv in
            ai.(k) <- f;
            for q = 0 to !cnt - 1 do
              let j = nz.(q) in
              ai.(j) <- Rat.sub ai.(j) (Rat.mul f pk.(j))
            done
          end
        done;
        step (k + 1)
      end
    end
  in
  step 0

(* Solve (P^-1 L U) x = b, i.e. L U x = P b. *)
let lu_solve a perm b =
  let m = Array.length a in
  let x = Array.init m (fun k -> b.(perm.(k))) in
  for i = 1 to m - 1 do
    for k = 0 to i - 1 do
      if not (Rat.is_zero a.(i).(k)) && not (Rat.is_zero x.(k)) then
        x.(i) <- Rat.sub x.(i) (Rat.mul a.(i).(k) x.(k))
    done
  done;
  for i = m - 1 downto 0 do
    for k = i + 1 to m - 1 do
      if not (Rat.is_zero a.(i).(k)) && not (Rat.is_zero x.(k)) then
        x.(i) <- Rat.sub x.(i) (Rat.mul a.(i).(k) x.(k))
    done;
    x.(i) <- Rat.div x.(i) a.(i).(i)
  done;
  x

(* Solve B^T y = c given B = P^-1 L U: U^T z = c (forward), L^T w = z
   (backward), y.(perm.(k)) = w.(k). *)
let lu_solve_transpose a perm c =
  let m = Array.length a in
  let z = Array.make m Rat.zero in
  for i = 0 to m - 1 do
    let acc = ref c.(i) in
    for k = 0 to i - 1 do
      if not (Rat.is_zero a.(k).(i)) && not (Rat.is_zero z.(k)) then
        acc := Rat.sub !acc (Rat.mul a.(k).(i) z.(k))
    done;
    z.(i) <- Rat.div !acc a.(i).(i)
  done;
  let w = Array.make m Rat.zero in
  for i = m - 1 downto 0 do
    let acc = ref z.(i) in
    for k = i + 1 to m - 1 do
      if not (Rat.is_zero a.(k).(i)) && not (Rat.is_zero w.(k)) then
        acc := Rat.sub !acc (Rat.mul a.(k).(i) w.(k))
    done;
    w.(i) <- !acc
  done;
  let y = Array.make m Rat.zero in
  Array.iteri (fun k wk -> y.(perm.(k)) <- wk) w;
  y

(* A slack or artificial column is a unit column: its one entry (+/-1)
   sits in its own row.  Let S be the rows whose unit column is basic, R
   the others and C the basic structural columns (|C| = |R|).  Ordering
   S first puts B in the block form [[U, A_SC]; [0, A_RC]] with U a
   signed identity, so det B = +/-det A_RC; B x = b solves A_RC x_C = b_R
   and reads each unit column's value off its own row; and B^T y = c
   sets y_i = c_k * entry for the unit column k of row i in S, then
   solves A_RC^T y_R = c_C - A_SC^T y_S.  [block] is A_RC factored: one
   row per tight row, not one per model row. *)
type block = {
  unit_pos : int array; (* per template row: basis position of its unit column, or -1 *)
  unit_coef : Rat.t array; (* per template row: that column's entry, template orientation *)
  rows : int array; (* R *)
  cols : int array; (* basis positions of the structural columns, C *)
  lu : Rat.t array array; (* A_RC, factored *)
  perm : int array;
}

(* Factor the structural block of basis [bcols]; None when some row holds
   two unit columns or A_RC is singular, i.e. when B is singular.  An
   artificial column is +1 on its row as laid, so its template-orientation
   entry depends on the node's [rhs]; on a row laid as [Le] it is empty.
   Every unit column sits on its own row, so |R| = |C| when it returns. *)
let factor_block p ~rhs bcols =
  let m0 = Array.length p.prows in
  let unit_pos = Array.make m0 (-1) and unit_coef = Array.make m0 Rat.zero in
  let ok = ref (Array.length bcols = m0) and ncols = ref 0 in
  Array.iteri
    (fun k c ->
      if c < 0 || c >= p.pncols then ok := false
      else if c < p.nv then incr ncols
      else begin
        let i = if c < p.part_start then p.slack_row.(c - p.nv) else c - p.part_start in
        let pr = p.prows.(i) in
        let flip = flipped rhs i in
        let coef =
          if c < p.part_start then if pr.rel = Model.Ge then Rat.minus_one else Rat.one
          else if oriented_rel pr ~flip = Model.Le then Rat.zero
          else if flip then Rat.minus_one
          else Rat.one
        in
        if unit_pos.(i) >= 0 || Rat.is_zero coef then ok := false
        else begin
          unit_pos.(i) <- k;
          unit_coef.(i) <- coef
        end
      end)
    bcols;
  if not !ok then None
  else begin
    let rows = Array.make !ncols 0 and cols = Array.make !ncols 0 in
    let a = ref 0 in
    Array.iteri
      (fun i k ->
        if k < 0 then begin
          rows.(!a) <- i;
          incr a
        end)
      unit_pos;
    let b = ref 0 in
    Array.iteri
      (fun k c ->
        if c < p.nv then begin
          cols.(!b) <- k;
          incr b
        end)
      bcols;
    let lu =
      Array.map
        (fun i ->
          let coeffs = p.prows.(i).coeffs in
          Array.map (fun k -> coeffs.(bcols.(k))) cols)
        rows
    in
    match lu_factor lu with
    | None -> None
    | Some perm -> Some { unit_pos; unit_coef; rows; cols; lu; perm }
  end

(* Accumulate [scale * row i] into [acc] through row i's sparse terms. *)
let add_row p acc scale i =
  let pr = p.prows.(i) in
  for q = 0 to Array.length pr.tvars - 1 do
    let v = pr.tvars.(q) in
    acc.(v) <- Rat.add acc.(v) (Rat.mul scale pr.tcoefs.(q))
  done

(* [rhs.(i)] less row i's terms at [x] over the columns [keep] admits. *)
let row_residual p ~rhs x ~keep i =
  let pr = p.prows.(i) in
  let acc = ref rhs.(i) in
  for q = 0 to Array.length pr.tvars - 1 do
    let v = pr.tvars.(q) in
    if keep v then acc := Rat.sub !acc (Rat.mul pr.tcoefs.(q) x.(v))
  done;
  !acc

(* The multipliers y (one per template row) with B^T y = [cost], one
   cost per basis position. *)
let block_dual p blk bcols cost =
  let y = Array.make (Array.length p.prows) Rat.zero in
  Array.iteri
    (fun i k -> if k >= 0 then y.(i) <- Rat.mul cost.(k) blk.unit_coef.(i))
    blk.unit_pos;
  let c_c = Array.map (fun k -> cost.(k)) blk.cols in
  if Array.exists (fun v -> not (Rat.is_zero v)) y then begin
    let paid = Array.make p.nv Rat.zero in
    Array.iteri (fun i yi -> if not (Rat.is_zero yi) then add_row p paid yi i) y;
    Array.iteri (fun b k -> c_c.(b) <- Rat.sub c_c.(b) paid.(bcols.(k))) blk.cols
  end;
  let y_r = lu_solve_transpose blk.lu blk.perm c_c in
  Array.iteri (fun a i -> y.(i) <- y_r.(a)) blk.rows;
  y

(* Certify a proposed basis against the template (un-negated) row
   orientation: negating a row multiplies an entire equation by -1,
   which changes neither its solution set nor which column sets form a
   nonsingular basis, so certification is representation-independent.
   Checks, all in exact arithmetic on the structural block:
   - B nonsingular (A_RC factors);
   - primal: 0 <= x_B <= ub, where x_C solves A_RC x_C = b_R less the
     nonbasic-at-upper contributions and each basic slack is its row's
     residual, summed over the row's sparse terms;
   - dual: reduced costs d_j = c_j - y.A_j (y = B^-T c_B, zero on every
     row whose slack is basic) are >= 0 at lower bound and <= 0 at upper
     bound for every priceable column, priced through the rows where y
     is non-zero.
   B is nonsingular, so x_B and y are the unique values a full m x m
   solve would give.  Passing both checks proves the basis optimal for
   the minimized objective, so the reconstructed rational solution is
   exactly optimal. *)
let certify p ~lb ~rhs ~shifted_ub ~basis =
  let nv = p.nv in
  let bcols = basis.bcols in
  if Array.exists (fun c -> c >= p.part_start) bcols then None
  else
    match factor_block p ~rhs bcols with
    | None -> None
    | Some blk ->
      let is_basic = Array.make p.part_start false in
      Array.iter (fun c -> is_basic.(c) <- true) bcols;
      (* Nonbasic structural columns at a non-zero upper bound. *)
      let up =
        Array.init nv (fun j ->
            basis.bupper.(j)
            && (not is_basic.(j))
            && match shifted_ub.(j) with Some u -> not (Rat.is_zero u) | None -> false)
      in
      (* x: every structural value over x - lb, basic ones filled below. *)
      let x = Array.init nv (fun j -> if up.(j) then Option.get shifted_ub.(j) else Rat.zero) in
      let b_r = Array.map (row_residual p ~rhs x ~keep:(fun v -> up.(v))) blk.rows in
      let x_c = lu_solve blk.lu blk.perm b_r in
      Array.iteri (fun b k -> x.(bcols.(k)) <- x_c.(b)) blk.cols;
      let in_box b v =
        Rat.sign v >= 0
        &&
        match shifted_ub.(bcols.(blk.cols.(b))) with
        | Some u -> Rat.compare v u <= 0
        | None -> true
      in
      let slack_ok i k =
        k < 0
        ||
        let residual = row_residual p ~rhs x ~keep:(fun v -> not (Rat.is_zero x.(v))) i in
        Rat.sign residual * Rat.sign blk.unit_coef.(i) >= 0
      in
      let primal_ok = ref true in
      Array.iteri (fun b v -> if not (in_box b v) then primal_ok := false) x_c;
      Array.iteri (fun i k -> if not (slack_ok i k) then primal_ok := false) blk.unit_pos;
      if not !primal_ok then None
      else begin
        let c_b = Array.map (fun c -> if c < nv then p.cost.(c) else Rat.zero) bcols in
        let y = block_dual p blk bcols c_b in
        let fixed = is_fixed shifted_ub nv in
        let priced j = (not is_basic.(j)) && not (fixed j) in
        let d = Array.copy p.cost in
        Array.iteri
          (fun i yi ->
            if not (Rat.is_zero yi) then begin
              let pr = p.prows.(i) in
              for q = 0 to Array.length pr.tvars - 1 do
                let v = pr.tvars.(q) in
                if priced v then d.(v) <- Rat.sub d.(v) (Rat.mul yi pr.tcoefs.(q))
              done
            end)
          y;
        let dual_ok = ref true in
        for j = 0 to nv - 1 do
          if priced j then begin
            let s = Rat.sign d.(j) in
            if (up.(j) && s > 0) || ((not up.(j)) && s < 0) then dual_ok := false
          end
        done;
        (* A nonbasic slack sits at 0 with reduced cost -(entry * y_i). *)
        Array.iteri
          (fun i pr ->
            if pr.slack >= 0 && (not is_basic.(pr.slack)) && not (Rat.is_zero y.(i)) then begin
              let entry = if pr.rel = Model.Ge then -1 else 1 in
              if Rat.sign y.(i) * entry > 0 then dual_ok := false
            end)
          p.prows;
        if not !dual_ok then None
        else begin
          let values = Array.mapi (fun v xv -> Rat.add lb.(v) xv) x in
          Some { objective = objective_value p values; values; pivots = 0 }
        end
      end

(* Prove a float infeasibility claim.  The claim names a basis and one
   cost per basic column; y = B^-T cost is a candidate Farkas ray.  Every
   feasible point satisfies y.A x' + y.S s = y.b', where b' is [rhs], x'
   = x - lb lies in the node's box [0, ub - lb] and every slack s >= 0.
   So when beta = y.b' lies outside [min, max] of alpha = y.[A S] over
   that box, no point is feasible.  The ray is sound whatever y is: the
   basis only proposes it, and a wrong one just fails the check. *)
let farkas p ~rhs ~shifted_ub claim =
  match factor_block p ~rhs claim.claim_cols with
  | None -> false
  | Some blk ->
    let y = block_dual p blk claim.claim_cols claim.claim_cost in
    let alpha = Array.make p.nv Rat.zero in
    let beta = ref Rat.zero in
    (* Each end of the range; None once it is unbounded. *)
    let lo = ref (Some Rat.zero) and hi = ref (Some Rat.zero) in
    let widen a u =
      let s = Rat.sign a in
      let grow e = match (e, u) with Some e, Some u -> Some (Rat.add e (Rat.mul a u)) | _ -> None in
      if s > 0 then hi := grow !hi else if s < 0 then lo := grow !lo
    in
    Array.iteri
      (fun i yi ->
        if not (Rat.is_zero yi) then begin
          beta := Rat.add !beta (Rat.mul yi rhs.(i));
          add_row p alpha yi i;
          match p.prows.(i).rel with
          | Model.Le -> widen yi None
          | Model.Ge -> widen (Rat.neg yi) None
          | Model.Eq -> ()
        end)
      y;
    Array.iteri (fun j a -> widen a shifted_ub.(j)) alpha;
    (match !lo with Some l -> Rat.compare !beta l < 0 | None -> false)
    || match !hi with Some h -> Rat.compare !beta h > 0 | None -> false

type float_first_outcome = {
  ff_result : result;
  ff_basis : basis option;
  ff_certified : bool;
}

(* Cap on float iterations: float pivots are ~1000x cheaper than exact
   ones, and a float run that long signals numerical trouble — better to
   hand the node to the exact solver with its budget intact. *)
let float_iter_cap = 20_000

let solve_float_first ?bounds ?warm ?(max_pivots = 2_000_000) p =
  let lb, shifted_ub, conflict = node_bounds p bounds in
  if conflict then { ff_result = Infeasible; ff_basis = None; ff_certified = true }
  else begin
    let rhs = shifted_rhs p lb in
    let fallback () =
      {
        ff_result = solve_exact p ~lb ~rhs ~shifted_ub ~max_pivots;
        ff_basis = None;
        ff_certified = false;
      }
    in
    let fmax = min max_pivots float_iter_cap in
    let attempt () =
      match warm with
      | Some w -> (
        try fsolve_warm p w ~rhs ~shifted_ub ~max_iters:fmax
        with Float_give_up -> fsolve_cold p ~rhs ~shifted_ub ~max_iters:fmax)
      | None -> fsolve_cold p ~rhs ~shifted_ub ~max_iters:fmax
    in
    match attempt () with
    | exception Float_give_up -> fallback ()
    | `Infeasible claim when farkas p ~rhs ~shifted_ub claim ->
      { ff_result = Infeasible; ff_basis = None; ff_certified = true }
    | `Infeasible _ | `Unbounded ->
      (* An unproven infeasibility claim, or an unboundedness claim (no
         certificate is checked for it): re-derive the verdict exactly. *)
      fallback ()
    | `Basis (b, fiters) -> (
      match certify p ~lb ~rhs ~shifted_ub ~basis:b with
      | Some sol ->
        {
          ff_result = Optimal { sol with pivots = fiters };
          ff_basis = Some b;
          ff_certified = true;
        }
      | None -> fallback ())
  end

let solve ?bounds ?max_pivots model = solve_prepared ?bounds ?max_pivots (prepare model)
