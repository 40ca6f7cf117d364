(* The original seed LP solver, kept as the independently written oracle
   of the differential tests and the certcheck gate.

   Standard form  min c.y  s.t.  T.y = b, y >= 0, b >= 0  where
   structural variables y_j = x_j - lb_j occupy columns 0..nv-1,
   slack/surplus variables follow, then artificials.  Upper bounds
   become explicit  y_j <= u_j  rows, and the whole tableau is rebuilt
   from the model on every call: nothing is shared with the bounded-
   variable simplex in [Tapa_cs_ilp.Simplex] but the result type. *)

open Tapa_cs_util
open Tapa_cs_ilp
open Simplex

type tableau = {
  mutable rows : Rat.t array array; (* m rows of length ncols+1; last entry is rhs *)
  mutable basis : int array; (* basic variable of each row *)
  obj : Rat.t array; (* reduced-cost row, length ncols+1; last = -objective *)
  ncols : int;
  mutable pivots : int;
  max_pivots : int;
}

let pivot tab r c =
  tab.pivots <- tab.pivots + 1;
  if tab.pivots > tab.max_pivots then raise Pivot_limit;
  let row = tab.rows.(r) in
  let p = row.(c) in
  let n = tab.ncols in
  for j = 0 to n do
    row.(j) <- Rat.div row.(j) p
  done;
  let eliminate target =
    let f = target.(c) in
    if not (Rat.is_zero f) then
      for j = 0 to n do
        target.(j) <- Rat.sub target.(j) (Rat.mul f row.(j))
      done
  in
  Array.iteri (fun i other -> if i <> r then eliminate other) tab.rows;
  eliminate tab.obj;
  tab.basis.(r) <- c

(* Pricing: Dantzig's rule (most negative reduced cost) for speed, falling
   back to Bland's rule (lowest index) after a pivot budget to guarantee
   termination on degenerate cycles. *)
let bland_switch = 400

let optimize tab ~allowed =
  let m = Array.length tab.rows in
  let start_pivots = tab.pivots in
  let rec step () =
    let bland = tab.pivots - start_pivots > bland_switch in
    let entering = ref (-1) in
    if bland then begin
      let j = ref 0 in
      while !entering < 0 && !j < tab.ncols do
        if allowed !j && Rat.sign tab.obj.(!j) < 0 then entering := !j;
        incr j
      done
    end
    else begin
      let best = ref Rat.zero in
      for j = 0 to tab.ncols - 1 do
        if allowed j && Rat.compare tab.obj.(j) !best < 0 then begin
          best := tab.obj.(j);
          entering := j
        end
      done
    end;
    if !entering < 0 then `Optimal
    else begin
      let c = !entering in
      let best_row = ref (-1) in
      let best_ratio = ref Rat.zero in
      for i = 0 to m - 1 do
        let a = tab.rows.(i).(c) in
        if Rat.sign a > 0 then begin
          let ratio = Rat.div tab.rows.(i).(tab.ncols) a in
          let better =
            !best_row < 0
            || Rat.compare ratio !best_ratio < 0
            || (Rat.compare ratio !best_ratio = 0 && tab.basis.(i) < tab.basis.(!best_row))
          in
          if better then begin
            best_row := i;
            best_ratio := ratio
          end
        end
      done;
      if !best_row < 0 then `Unbounded
      else begin
        pivot tab !best_row c;
        step ()
      end
    end
  in
  step ()

let solve ?bounds ?(max_pivots = 2_000_000) model =
  let nv = Model.num_vars model in
  let lb = Array.init nv (Model.var_lb model) in
  let ub = Array.init nv (Model.var_ub model) in
  (match bounds with
  | Some (l, u) ->
    Array.blit l 0 lb 0 nv;
    Array.blit u 0 ub 0 nv
  | None -> ());
  let bound_conflict = ref false in
  let shifted_ub =
    Array.init nv (fun j ->
        match ub.(j) with
        | None -> None
        | Some u ->
          let d = Rat.sub u lb.(j) in
          if Rat.sign d < 0 then bound_conflict := true;
          Some d)
  in
  if !bound_conflict then Infeasible
  else begin
    (* Collect rows over the shifted variables y = x - lb. *)
    let raw_rows = ref [] in
    let add_row coeffs rel rhs = raw_rows := (coeffs, rel, rhs) :: !raw_rows in
    List.iter
      (fun (e, rel, rhs) ->
        let coeffs = Array.make nv Rat.zero in
        List.iter (fun (v, c) -> coeffs.(v) <- c) (Linear.terms e);
        let shift = ref Rat.zero in
        for j = 0 to nv - 1 do
          if not (Rat.is_zero coeffs.(j)) then shift := Rat.add !shift (Rat.mul coeffs.(j) lb.(j))
        done;
        add_row coeffs rel (Rat.sub rhs !shift))
      (Model.constraints model);
    Array.iteri
      (fun j u ->
        match u with
        | Some u ->
          let coeffs = Array.make nv Rat.zero in
          coeffs.(j) <- Rat.one;
          add_row coeffs Model.Le u
        | None -> ())
      shifted_ub;
    let rows = List.rev !raw_rows in
    (* Normalize to nonnegative right-hand sides. *)
    let rows =
      List.map
        (fun (coeffs, rel, rhs) ->
          if Rat.sign rhs < 0 then begin
            let coeffs = Array.map Rat.neg coeffs in
            let rel = match rel with Model.Le -> Model.Ge | Model.Ge -> Model.Le | Model.Eq -> Model.Eq in
            (coeffs, rel, Rat.neg rhs)
          end
          else (coeffs, rel, rhs))
        rows
    in
    let m = List.length rows in
    let nslack = List.length (List.filter (fun (_, rel, _) -> rel <> Model.Eq) rows) in
    let nart = List.length (List.filter (fun (_, rel, _) -> rel <> Model.Le) rows) in
    let art_start = nv + nslack in
    let ncols = nv + nslack + nart in
    let tab =
      {
        rows = Array.init m (fun _ -> Array.make (ncols + 1) Rat.zero);
        basis = Array.make m (-1);
        obj = Array.make (ncols + 1) Rat.zero;
        ncols;
        pivots = 0;
        max_pivots;
      }
    in
    let next_slack = ref nv and next_art = ref art_start in
    List.iteri
      (fun i (coeffs, rel, rhs) ->
        let row = tab.rows.(i) in
        Array.blit coeffs 0 row 0 nv;
        row.(ncols) <- rhs;
        (match rel with
        | Model.Le ->
          row.(!next_slack) <- Rat.one;
          tab.basis.(i) <- !next_slack;
          incr next_slack
        | Model.Ge ->
          row.(!next_slack) <- Rat.minus_one;
          incr next_slack;
          row.(!next_art) <- Rat.one;
          tab.basis.(i) <- !next_art;
          incr next_art
        | Model.Eq ->
          row.(!next_art) <- Rat.one;
          tab.basis.(i) <- !next_art;
          incr next_art))
      rows;
    (* Phase 1: minimize the sum of artificials.  Price out basic
       artificials so their reduced costs start at zero. *)
    let need_phase1 = nart > 0 in
    let feasible =
      if not need_phase1 then true
      else begin
        for j = art_start to ncols - 1 do
          tab.obj.(j) <- Rat.one
        done;
        Array.iteri
          (fun i b ->
            if b >= art_start then
              for j = 0 to ncols do
                tab.obj.(j) <- Rat.sub tab.obj.(j) tab.rows.(i).(j)
              done)
          tab.basis;
        (match optimize tab ~allowed:(fun _ -> true) with
        | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
        | `Optimal -> ());
        let phase1_obj = Rat.neg tab.obj.(ncols) in
        Rat.is_zero phase1_obj
      end
    in
    if not feasible then Infeasible
    else begin
      (* Drive any basic artificial (necessarily at value zero) out of the
         basis, or drop its row when it is redundant. *)
      if need_phase1 then begin
        let keep = ref [] in
        Array.iteri
          (fun i b ->
            if b >= art_start then begin
              let row = tab.rows.(i) in
              let col = ref (-1) in
              (let j = ref 0 in
               while !col < 0 && !j < art_start do
                 if not (Rat.is_zero row.(!j)) then col := !j;
                 incr j
               done);
              if !col >= 0 then begin
                pivot tab i !col;
                keep := i :: !keep
              end
              (* else: redundant row, dropped below *)
            end
            else keep := i :: !keep)
          tab.basis;
        let keep = List.sort compare !keep in
        let nkeep = List.length keep in
        if nkeep <> Array.length tab.rows then begin
          let rows' = Array.make nkeep [||] in
          let basis' = Array.make nkeep (-1) in
          List.iteri
            (fun k i ->
              rows'.(k) <- tab.rows.(i);
              basis'.(k) <- tab.basis.(i))
            keep;
          tab.rows <- rows';
          tab.basis <- basis'
        end
      end;
      (* Phase 2: install the real objective (internally minimized). *)
      let sense, obj_expr = Model.objective model in
      let c = Array.make ncols Rat.zero in
      List.iter
        (fun (v, k) -> c.(v) <- (match sense with Model.Minimize -> k | Model.Maximize -> Rat.neg k))
        (Linear.terms obj_expr);
      Array.fill tab.obj 0 (ncols + 1) Rat.zero;
      Array.blit c 0 tab.obj 0 ncols;
      Array.iteri
        (fun i b ->
          let cb = if b < ncols then c.(b) else Rat.zero in
          if not (Rat.is_zero cb) then
            for j = 0 to ncols do
              tab.obj.(j) <- Rat.sub tab.obj.(j) (Rat.mul cb tab.rows.(i).(j))
            done)
        tab.basis;
      match optimize tab ~allowed:(fun j -> j < art_start) with
      | `Unbounded -> Unbounded
      | `Optimal ->
        let values = Array.init nv (fun j -> lb.(j)) in
        Array.iteri
          (fun i b -> if b < nv then values.(b) <- Rat.add values.(b) tab.rows.(i).(ncols))
          tab.basis;
        let objective = Linear.eval obj_expr (fun v -> values.(v)) in
        Optimal { objective; values; pivots = tab.pivots }
    end
  end
