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
   normalization picks a row instead of allocating nv Rat.neg); [terms]
   is the sparse view used to re-shift the rhs under new lower bounds. *)
type prow = {
  coeffs : Rat.t array; (* length nv *)
  neg : Rat.t array;
  terms : (int * Rat.t) list;
  rel : Model.relation;
  rhs : Rat.t;
  slack : int; (* slack/surplus column; -1 for Eq rows *)
  art : int; (* artificial column (used only when the node needs it) *)
}

type prepared = {
  model : Model.t;
  nv : int;
  prows : prow array;
  part_start : int; (* first artificial column *)
  pncols : int;
  base_lb : Rat.t array;
  base_ub : Rat.t option array;
  cost : Rat.t array; (* the objective as minimized, one entry per variable *)
  fcost : float array; (* [cost] in doubles, for the float tableau *)
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
  let prows =
    Array.mapi
      (fun i (e, rel, rhs) ->
        let coeffs = Array.make nv Rat.zero in
        List.iter (fun (v, c) -> coeffs.(v) <- c) (Linear.terms e);
        {
          coeffs;
          neg = Array.map Rat.neg coeffs;
          terms = Linear.terms e;
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
    model;
    nv;
    prows;
    part_start;
    pncols;
    base_lb = Array.init nv (Model.var_lb model);
    base_ub = Array.init nv (Model.var_ub model);
    cost;
    fcost = Array.map Rat.to_float cost;
  }

(* Node-specific variable bounds, computed exactly once per solve and
   shared by whichever tableau runs and the certification pass: the lower
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
        | Some u ->
          let d = if Rat.is_zero lb.(j) then u else Rat.sub u lb.(j) in
          if Rat.sign d < 0 then conflict := true;
          Some d)
  in
  (lb, shifted_ub, !conflict)

(* A variable fixed by its bounds (shifted ub = 0) stays glued to 0;
   excluding its column from pricing removes it from the search entirely
   — the incremental payoff deep in the branch-and-bound tree, where most
   binaries are fixed. *)
let is_fixed shifted_ub nv j =
  j < nv && match shifted_ub.(j) with Some u -> Rat.is_zero u | None -> false

(* Row [pr] over the shifted variables x - lb: the rhs less the exact
   lower-bound shift and, when that is negative, the negated row with its
   relation flipped, so every row starts with a nonnegative basic value.
   The exact and the float tableau both orient their rows here, so the
   two can never disagree on a row's sign. *)
let orient pr lb =
  (* Most lower bounds are zero (free or 0-fixed binaries), so guard the
     Rat.mul: exact-rational ops dominate the per-node cost. *)
  let shift =
    List.fold_left
      (fun acc (v, c) -> if Rat.is_zero lb.(v) then acc else Rat.add acc (Rat.mul c lb.(v)))
      Rat.zero pr.terms
  in
  let rhs = Rat.sub pr.rhs shift in
  if Rat.sign rhs >= 0 then (pr.coeffs, rhs, pr.rel)
  else
    ( pr.neg,
      Rat.neg rhs,
      match pr.rel with Model.Le -> Model.Ge | Model.Ge -> Model.Le | Model.Eq -> Model.Eq )

(* Lay every oriented template row into a fresh tableau whose entries are
   [conv]erted from Rat: the structural coefficients, then a basic slack
   on a [Le] row, or a basic artificial on a [Ge] row (after its surplus)
   or an [Eq] row.  Returns how many artificials start basic. *)
let lay_rows p ~lb ~conv ~one ~minus_one rows xb basis =
  let nart = ref 0 in
  Array.iteri
    (fun i pr ->
      let src, rhs, rel = orient pr lb in
      let row = rows.(i) in
      for j = 0 to p.nv - 1 do
        row.(j) <- conv src.(j)
      done;
      (match rel with
      | Model.Le ->
        row.(pr.slack) <- one;
        basis.(i) <- pr.slack
      | Model.Ge ->
        row.(pr.slack) <- minus_one;
        row.(pr.art) <- one;
        basis.(i) <- pr.art;
        incr nart
      | Model.Eq ->
        row.(pr.art) <- one;
        basis.(i) <- pr.art;
        incr nart);
      xb.(i) <- conv rhs)
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
let solve_exact p ~lb ~shifted_ub ~max_pivots =
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
    lay_rows p ~lb ~conv:Fun.id ~one:Rat.one ~minus_one:Rat.minus_one tab.brows tab.bxb
      tab.bbasis
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
      let objective = Linear.eval (snd (Model.objective p.model)) (fun v -> values.(v)) in
      Optimal { objective; values; pivots = tab.iters }
  end

let solve_prepared ?bounds ?(max_pivots = 2_000_000) p =
  let lb, shifted_ub, conflict = node_bounds p bounds in
  if conflict then Infeasible else solve_exact p ~lb ~shifted_ub ~max_pivots

(* ================================================================== *)
(* Float-first path: double-precision simplex proposes a basis, exact  *)
(* rational linear algebra certifies it.                               *)
(*                                                                     *)
(* The float tableau is a structural mirror of the bounded-variable    *)
(* solver above (same column layout, same sign normalization, same     *)
(* two-phase structure) but runs in doubles with epsilon tolerances.   *)
(* Nothing it computes is trusted: the only thing taken from it is the *)
(* final basis (one column per row plus the at-upper flags), and that  *)
(* basis is re-checked from scratch in Rat.t — basic values via an     *)
(* exact LU solve of B x_B = b_eff, reduced costs via B^T y = c_B.     *)
(* Any violation, numerical failure, or float-claimed infeasibility /  *)
(* unboundedness routes to the exact solver, so results are exact      *)
(* regardless of floating-point behaviour.                             *)
(* ================================================================== *)

type basis = {
  bcols : int array; (* basic column of each template row *)
  bupper : bool array; (* per-column nonbasic-at-upper-bound flags *)
}

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
  mutable fncols : int; (* active column window; shrinks to [part_start]
                           once no artificial can re-enter the basis *)
  mutable fiters : int;
  fmax : int;
}

let f_tick tab =
  tab.fiters <- tab.fiters + 1;
  if tab.fiters > tab.fmax then raise Float_give_up

let fpivot tab r c =
  f_tick tab;
  let row = tab.frows.(r) in
  let p = row.(c) in
  if Float.abs p < f_piv_eps then raise Float_give_up;
  let n = tab.fncols in
  for j = 0 to n - 1 do
    row.(j) <- row.(j) /. p
  done;
  let eliminate target =
    let f = target.(c) in
    if f <> 0. then
      for j = 0 to n - 1 do
        target.(j) <- target.(j) -. (f *. row.(j))
      done
  in
  Array.iteri (fun i other -> if i <> r then eliminate other) tab.frows;
  eliminate tab.fobj;
  tab.fbasis.(r) <- c

(* Gaussian pivot used while installing a warm basis: the rhs column is
   transformed alongside the rows (valid because at-upper contributions
   are already folded into [fxb] and no bound status changes during the
   install). *)
let fginstall tab r c =
  f_tick tab;
  let row = tab.frows.(r) in
  let p = row.(c) in
  if Float.abs p < f_piv_eps then raise Float_give_up;
  let n = tab.fncols in
  for j = 0 to n - 1 do
    row.(j) <- row.(j) /. p
  done;
  tab.fxb.(r) <- tab.fxb.(r) /. p;
  Array.iteri
    (fun i other ->
      if i <> r then begin
        let f = other.(c) in
        if f <> 0. then begin
          for j = 0 to n - 1 do
            other.(j) <- other.(j) -. (f *. row.(j))
          done;
          tab.fxb.(i) <- tab.fxb.(i) -. (f *. tab.fxb.(r))
        end
      end)
    tab.frows;
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
      if !best < 0 then `Infeasible (* dual unbounded: no primal solution *)
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

(* Build the float tableau in the exact path's orientation ([orient]
   works in Rat before anything is converted, so the orientation
   decision can never disagree with the exact path). *)
let build_ftab p ~lb ~shifted_ub ~max_iters =
  let ncols = p.pncols in
  let m0 = Array.length p.prows in
  let tab =
    {
      frows = Array.init m0 (fun _ -> Array.make ncols 0.);
      fxb = Array.make m0 0.;
      fbasis = Array.make m0 (-1);
      fobj = Array.make ncols 0.;
      fubs = Array.make ncols infinity;
      fupper = Array.make ncols false;
      fncols = ncols;
      fiters = 0;
      fmax = max_iters;
    }
  in
  Array.iteri
    (fun j u -> match u with Some u -> tab.fubs.(j) <- Rat.to_float u | None -> ())
    shifted_ub;
  let nart_basic =
    lay_rows p ~lb ~conv:Rat.to_float ~one:1. ~minus_one:(-1.) tab.frows tab.fxb tab.fbasis
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
   optimal basis or an (untrusted) infeasible/unbounded claim.  A row
   with no entry above [f_piv_eps] gives up instead of being dropped:
   certification needs one basic column per template row. *)
let fsolve_cold p ~lb ~shifted_ub ~max_iters =
  let tab, nart_basic = build_ftab p ~lb ~shifted_ub ~max_iters in
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
  if not feasible then `Infeasible
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
let fsolve_warm p warm ~lb ~shifted_ub ~max_iters =
  let m0 = Array.length p.prows in
  if Array.length warm.bcols <> m0 then raise Float_give_up;
  Array.iter (fun c -> if c < 0 || c >= p.part_start then raise Float_give_up) warm.bcols;
  let tab, _ = build_ftab p ~lb ~shifted_ub ~max_iters in
  (* The warm basis uses only structural/slack columns (checked above),
     so the artificial block is dead weight from the start. *)
  tab.fncols <- p.part_start;
  let fixed = is_fixed shifted_ub p.nv in
  let is_basic = Array.make p.pncols false in
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
  | `Infeasible -> `Infeasible
  | `Feasible -> (
    match foptimize tab ~allowed with
    | `Unbounded -> `Unbounded
    | `Optimal -> `Basis (fextract_basis tab, tab.fiters))

(* ------------------------------------------------------------------ *)
(* Exact certification of a proposed basis.                            *)
(* ------------------------------------------------------------------ *)

(* Dense LU with partial pivoting over Rat, preferring +/-1 pivots (the
   basis matrix is dominated by unit slack columns, so most elimination
   steps are exact unit pivots with no fraction growth).  Returns the
   row permutation, or None when the matrix is singular.  The factors
   overwrite [a]: L below the diagonal (unit diagonal implicit), U on
   and above. *)
let lu_factor a =
  let m = Array.length a in
  let perm = Array.init m (fun i -> i) in
  let singular = ref false in
  (try
     for k = 0 to m - 1 do
       let first = ref (-1) in
       let unit = ref (-1) in
       for i = k to m - 1 do
         if not (Rat.is_zero a.(i).(k)) then begin
           if !first < 0 then first := i;
           if !unit < 0 && Rat.equal (Rat.abs a.(i).(k)) Rat.one then unit := i
         end
       done;
       let r = if !unit >= 0 then !unit else !first in
       if r < 0 then begin
         singular := true;
         raise Exit
       end;
       if r <> k then begin
         let tmp = a.(k) in
         a.(k) <- a.(r);
         a.(r) <- tmp;
         let tp = perm.(k) in
         perm.(k) <- perm.(r);
         perm.(r) <- tp
       end;
       let piv = a.(k).(k) in
       for i = k + 1 to m - 1 do
         if not (Rat.is_zero a.(i).(k)) then begin
           let f = Rat.div a.(i).(k) piv in
           a.(i).(k) <- f;
           for j = k + 1 to m - 1 do
             if not (Rat.is_zero a.(k).(j)) then
               a.(i).(j) <- Rat.sub a.(i).(j) (Rat.mul f a.(k).(j))
           done
         end
       done
     done
   with Exit -> ());
  if !singular then None else Some perm

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

(* Certify a proposed basis against the CANONICAL (un-negated) row
   orientation: row negation in the solvers multiplies an entire
   equation by -1, which changes neither its solution set nor which
   column sets form a nonsingular basis, so certification is
   representation-independent.  Checks, all in exact arithmetic:
   - B nonsingular (LU succeeds);
   - primal: 0 <= x_B <= ub for x_B = B^-1 b_eff, where b_eff folds the
     exact lower-bound shift and the nonbasic-at-upper contributions;
   - dual: reduced costs d_j = c_j - y.A_j (y = B^-T c_B) are >= 0 at
     lower bound and <= 0 at upper bound for every priceable column.
   Passing both proves the basis optimal for the minimized objective, so
   the reconstructed rational solution is exactly optimal. *)
let certify p ~lb ~shifted_ub ~basis =
  let nv = p.nv in
  let m0 = Array.length p.prows in
  if Array.length basis.bcols <> m0 then None
  else begin
    let ok = ref true in
    let is_basic = Array.make p.pncols false in
    Array.iter
      (fun c ->
        if c < 0 || c >= p.part_start || is_basic.(c) then ok := false
        else is_basic.(c) <- true)
      basis.bcols;
    if not !ok then None
    else begin
      let fixed = is_fixed shifted_ub nv in
      let slack_row = Array.make p.pncols (-1) in
      Array.iteri (fun i pr -> if pr.slack >= 0 then slack_row.(pr.slack) <- i) p.prows;
      let entry i j =
        if j < nv then p.prows.(i).coeffs.(j)
        else if slack_row.(j) = i then
          match p.prows.(i).rel with
          | Model.Le -> Rat.one
          | Model.Ge -> Rat.minus_one
          | Model.Eq -> Rat.zero
        else Rat.zero
      in
      let at_up j =
        j < nv
        && basis.bupper.(j)
        && (not is_basic.(j))
        && match shifted_ub.(j) with Some u -> not (Rat.is_zero u) | None -> false
      in
      let bmat = Array.init m0 (fun i -> Array.init m0 (fun k -> entry i basis.bcols.(k))) in
      match lu_factor bmat with
      | None -> None
      | Some perm ->
        let b_eff =
          Array.init m0 (fun i ->
              let pr = p.prows.(i) in
              List.fold_left
                (fun acc (v, c) ->
                  let acc =
                    if Rat.is_zero lb.(v) then acc else Rat.sub acc (Rat.mul c lb.(v))
                  in
                  if at_up v then Rat.sub acc (Rat.mul c (Option.get shifted_ub.(v))) else acc)
                pr.rhs pr.terms)
        in
        let x_b = lu_solve bmat perm b_eff in
        let primal_ok = ref true in
        Array.iteri
          (fun k x ->
            if Rat.sign x < 0 then primal_ok := false
            else begin
              let c = basis.bcols.(k) in
              if c < nv then
                match shifted_ub.(c) with
                | Some u -> if Rat.compare x u > 0 then primal_ok := false
                | None -> ()
            end)
          x_b;
        if not !primal_ok then None
        else begin
          let cost j = if j < nv then p.cost.(j) else Rat.zero in
          let c_b = Array.map cost basis.bcols in
          let y = lu_solve_transpose bmat perm c_b in
          let dual_ok = ref true in
          let j = ref 0 in
          while !dual_ok && !j < p.part_start do
            let jc = !j in
            if (not is_basic.(jc)) && not (fixed jc) then begin
              let d = ref (cost jc) in
              for i = 0 to m0 - 1 do
                if not (Rat.is_zero y.(i)) then begin
                  let a = entry i jc in
                  if not (Rat.is_zero a) then d := Rat.sub !d (Rat.mul y.(i) a)
                end
              done;
              let s = Rat.sign !d in
              if at_up jc then begin
                if s > 0 then dual_ok := false
              end
              else if s < 0 then dual_ok := false
            end;
            incr j
          done;
          if not !dual_ok then None
          else begin
            let values =
              Array.init nv (fun v ->
                  if at_up v then Rat.add lb.(v) (Option.get shifted_ub.(v)) else lb.(v))
            in
            Array.iteri
              (fun k col -> if col < nv then values.(col) <- Rat.add lb.(col) x_b.(k))
              basis.bcols;
            let objective = Linear.eval (snd (Model.objective p.model)) (fun v -> values.(v)) in
            Some { objective; values; pivots = 0 }
          end
        end
    end
  end

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
    let fallback () =
      { ff_result = solve_exact p ~lb ~shifted_ub ~max_pivots; ff_basis = None; ff_certified = false }
    in
    let fmax = min max_pivots float_iter_cap in
    let attempt () =
      match warm with
      | Some w -> (
        try fsolve_warm p w ~lb ~shifted_ub ~max_iters:fmax
        with Float_give_up -> fsolve_cold p ~lb ~shifted_ub ~max_iters:fmax)
      | None -> fsolve_cold p ~lb ~shifted_ub ~max_iters:fmax
    in
    match attempt () with
    | exception Float_give_up -> fallback ()
    | `Infeasible | `Unbounded ->
      (* Float claims of infeasibility/unboundedness carry no certificate:
         re-derive the verdict exactly. *)
      fallback ()
    | `Basis (b, fiters) -> (
      match certify p ~lb ~shifted_ub ~basis:b with
      | Some sol ->
        {
          ff_result = Optimal { sol with pivots = fiters };
          ff_basis = Some b;
          ff_certified = true;
        }
      | None -> fallback ())
  end

let solve ?bounds ?max_pivots model = solve_prepared ?bounds ?max_pivots (prepare model)
