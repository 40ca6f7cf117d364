open Tapa_cs_util

type solution = { objective : Rat.t; values : Rat.t array; counters : Counters.t }

type result =
  | Optimal of solution
  | Feasible of solution
  | Infeasible
  | Unbounded

let is_feasible model values =
  let nv = Model.num_vars model in
  Array.length values = nv
  && (let ok = ref true in
      for j = 0 to nv - 1 do
        let v = values.(j) in
        if Rat.compare v (Model.var_lb model j) < 0 then ok := false;
        (match Model.var_ub model j with
        | Some u when Rat.compare v u > 0 -> ok := false
        | _ -> ());
        if Model.var_kind model j = Model.Binary && not (Rat.is_integer v) then ok := false
      done;
      !ok)
  && List.for_all
       (fun (e, rel, rhs) ->
         let lhs = Linear.eval e (fun v -> values.(v)) in
         match rel with
         | Model.Le -> Rat.compare lhs rhs <= 0
         | Model.Ge -> Rat.compare lhs rhs >= 0
         | Model.Eq -> Rat.equal lhs rhs)
       (Model.constraints model)

type node = {
  bound : Rat.t;
  depth : int;
  seq : int;
      (* insertion order.  The frontier comparison breaks bound ties on
         [seq], making the pop order a total function of the search inputs
         rather than of heap internals — required so the carved subtrees
         and every tie-heavy best-first run are reproducible under any
         heap implementation. *)
  lbs : Rat.t array;
  ubs : Rat.t option array;
  warm : Simplex.basis option;
      (* the parent's certified LP basis: after one bound tightened it
         stays dual-feasible, so the child restarts with a dual simplex
         phase instead of solving from scratch *)
}

(* Outcome of one best-first run, rich enough for the carved driver:
   the plain [result] plus the raw counters and, when the run was asked
   to carve, the drained frontier in deterministic pop order. *)
type core = {
  c_result : result;
  c_best : solution option; (* finalized best incumbent, if any *)
  c_limit : bool;
  c_carved : node list;
  c_counters : Counters.t;
}

(* The best-first search engine shared by {!solve} (single run over the
   whole model) and {!solve_carved} (one run per carved subtree).
   [root] seeds the search inside a subtree's bound box; [carve = Some k]
   stops the loop once the frontier holds [k] nodes and hands them back
   instead of finishing; [template] is the prepared simplex shared across
   runs. *)
let solve_core ~max_nodes ~max_pivots ~stall_nodes ~incumbent ~template ~root ~carve model =
  let nv = Model.num_vars model in
  let sense, obj_expr = Model.objective model in
  (* Internally minimize: flip the comparison for maximization. *)
  let better a b =
    match sense with Model.Minimize -> Rat.compare a b < 0 | Model.Maximize -> Rat.compare a b > 0
  in
  let node_cmp a b =
    let c =
      match sense with
      | Model.Minimize -> Rat.compare a.bound b.bound
      | Model.Maximize -> Rat.compare b.bound a.bound
    in
    if c <> 0 then c else Stdlib.compare a.seq b.seq
  in
  let binaries =
    Array.of_list (List.filter (fun j -> Model.var_kind model j = Model.Binary) (List.init nv Fun.id))
  in
  let half = Rat.of_ints 1 2 in
  let best : solution option ref =
    ref
      (match incumbent with
      | Some values when is_feasible model values ->
        Some
          {
            objective = Linear.eval obj_expr (fun v -> values.(v));
            values;
            counters = Counters.zero;
          }
      | _ -> None)
  in
  let nodes = ref 0 and pivots = ref 0 and lp_solves = ref 0 in
  let certified = ref 0 and fallbacks = ref 0 in
  let counters () =
    {
      Counters.zero with
      bb_nodes = !nodes;
      lp_solves = !lp_solves;
      lp_pivots = !pivots;
      lp_certified = !certified;
      lp_fallbacks = !fallbacks;
    }
  in
  let last_improvement = ref 0 in
  let pivots_left () = Stdlib.max 1 (max_pivots - !pivots) in
  let frontier = Fourheap.create ~cmp:node_cmp in
  let next_seq = ref 0 in
  let push_node ~bound ~depth ~lbs ~ubs ~warm =
    let seq = !next_seq in
    incr next_seq;
    Fourheap.push frontier { bound; depth; seq; lbs; ubs; warm }
  in
  let limit_hit = ref false in
  let record_candidate sol =
    match !best with
    | Some b when not (better sol.objective b.objective) -> ()
    | _ ->
      best := Some sol;
      last_improvement := !nodes
  in
  let prune_by_incumbent bound =
    match !best with Some b -> not (better bound b.objective) | None -> false
  in
  (* Float-first with exact certification; the parent basis (when carried
     by the node) turns the solve into a dual restart. *)
  let solve_lp ?warm lbs ubs =
    incr lp_solves;
    match Simplex.solve_float_first ~bounds:(lbs, ubs) ?warm ~max_pivots:(pivots_left ()) template with
    | exception Simplex.Pivot_limit ->
      limit_hit := true;
      None
    | ff -> (
      if ff.Simplex.ff_certified then incr certified else incr fallbacks;
      match ff.Simplex.ff_result with
      | Simplex.Infeasible -> None
      | Simplex.Unbounded -> raise Exit (* surfaced as Unbounded below *)
      | Simplex.Optimal sol ->
        pivots := !pivots + sol.pivots;
        Some (sol, ff.Simplex.ff_basis))
  in
  let pick_branch_var values =
    (* Most fractional binary: fractional part closest to 1/2. *)
    let best_v = ref (-1) and best_score = ref Rat.one in
    Array.iter
      (fun j ->
        let f = Rat.fractional values.(j) in
        if not (Rat.is_zero f) then begin
          let score = Rat.abs (Rat.sub f half) in
          if !best_v < 0 || Rat.compare score !best_score < 0 then begin
            best_v := j;
            best_score := score
          end
        end)
      binaries;
    !best_v
  in
  let expand node =
    if prune_by_incumbent node.bound || !limit_hit then ()
    else begin
      match solve_lp ?warm:node.warm node.lbs node.ubs with
      | None -> ()
      | Some (lp, basis) ->
        if prune_by_incumbent lp.objective then ()
        else begin
          let v = pick_branch_var lp.values in
          if v < 0 then
            record_candidate
              { objective = lp.objective; values = lp.values; counters = Counters.zero }
          else begin
            let child fix =
              let lbs = Array.copy node.lbs and ubs = Array.copy node.ubs in
              if fix = 0 then ubs.(v) <- Some Rat.zero else lbs.(v) <- Rat.one;
              (node.depth + 1, lp.objective, lbs, ubs, basis)
            in
            (* Explore the branch suggested by the LP value first. *)
            let primary = if Rat.compare (Rat.fractional lp.values.(v)) half >= 0 then 1 else 0 in
            let push (depth, bound, lbs, ubs, warm) = push_node ~bound ~depth ~lbs ~ubs ~warm in
            push (child primary);
            push (child (1 - primary))
          end
        end
    end
  in
  let carved = ref [] in
  (* [verdict]: the search proved [Unbounded] or a root infeasibility,
     so no budget flag applies. *)
  let conclude ?(verdict = false) result best =
    {
      c_result = result;
      c_best = best;
      c_limit = (not verdict) && !limit_hit;
      c_carved = !carved;
      c_counters = counters ();
    }
  in
  match
    (let root_lbs, root_ubs, root_warm, root_depth =
       match root with
       | Some n -> (n.lbs, n.ubs, n.warm, n.depth)
       | None -> (Array.init nv (Model.var_lb model), Array.init nv (Model.var_ub model), None, 0)
     in
     (* Seed the frontier from the root LP; the root is not counted as a
        node and is never pruned by the seed incumbent (its children are,
        on pop). *)
     (match solve_lp ?warm:root_warm root_lbs root_ubs with
     | None -> if not !limit_hit then raise Not_found (* root infeasible *)
     | Some (lp, basis) ->
       let v = pick_branch_var lp.values in
       if v < 0 then
         record_candidate
           { objective = lp.objective; values = lp.values; counters = Counters.zero }
       else begin
         let child fix =
           let lbs = Array.copy root_lbs and ubs = Array.copy root_ubs in
           if fix = 0 then ubs.(v) <- Some Rat.zero else lbs.(v) <- Rat.one;
           push_node ~bound:lp.objective ~depth:(root_depth + 1) ~lbs ~ubs ~warm:basis
         in
         child 0;
         child 1
       end);
     let stalled () = !best <> None && !nodes - !last_improvement > stall_nodes in
     let carve_cap = match carve with Some c -> Stdlib.max 2 c | None -> max_int in
     while (not (Fourheap.is_empty frontier)) && (not !limit_hit) && !nodes < max_nodes
           && Fourheap.length frontier < carve_cap
           && not (stalled ()) do
       incr nodes;
       expand (Fourheap.pop_exn frontier)
     done;
     if (not (Fourheap.is_empty frontier)) && (!nodes >= max_nodes || stalled ()) then
       limit_hit := true;
     if carve <> None && (not !limit_hit)
        && Fourheap.length frontier >= Stdlib.min carve_cap 2 && not (Fourheap.is_empty frontier)
     then begin
       (* Drain in pop order (total thanks to [seq]), so the subtree list
          is deterministic. *)
       let rec drain acc =
         match Fourheap.pop frontier with None -> List.rev acc | Some n -> drain (n :: acc)
       in
       carved := drain []
     end)
  with
  | exception Exit -> conclude ~verdict:true Unbounded None
  | exception Not_found -> conclude ~verdict:true Infeasible None
  | () ->
    (* Incumbents carry zero counters while the search runs; the
       returned one is stamped with the final tallies. *)
    let fbest = Option.map (fun sol -> { sol with counters = counters () }) !best in
    let result =
      match fbest with
      | Some sol -> if !limit_hit then Feasible sol else Optimal sol
      | None ->
        (* Hitting a search limit with no incumbent yields no feasibility
           certificate either way; the result type has no "unknown" arm and
           every caller (e.g. Partition) treats [Infeasible] as "no ILP
           answer, fall back to the heuristic", which is the right reaction
           to both outcomes — so the limit-hit case is also [Infeasible]. *)
        Infeasible
    in
    conclude result fbest

let solve ?(max_nodes = 20_000) ?(max_pivots = 1_500_000) ?(stall_nodes = max_int) ?incumbent
    model =
  match Validate.check model with
  | Validate.Infeasible_constraint _ :: _ -> Infeasible
  | Validate.Unbounded_direction _ :: _ -> Unbounded
  | [] ->
    (* Lower the model to its standard-form template once at the root;
       every node then only re-applies its branching bounds. *)
    (solve_core ~max_nodes ~max_pivots ~stall_nodes ~incumbent ~template:(Simplex.prepare model)
       ~root:None ~carve:None model)
      .c_result

(* ------------------------------------------------------------------ *)
(* Carved search.                                                       *)
(*                                                                      *)
(* Phase A carves the root's best-first frontier into a FIXED list of    *)
(* subtrees (a pure function of the model).  Phase B searches them one   *)
(* by one in pop order, each with FIXED inputs: the phase-A incumbent    *)
(* and the full node budget.  A subtree whose root bound the merged      *)
(* answer already matches or beats is skipped unsolved: any solution     *)
(* inside it loses or ties, and ties keep the earlier answer.            *)
(* ------------------------------------------------------------------ *)

let subtrees = 8 (* width of the phase-A carve *)

let solve_carved ?(max_nodes = 20_000) ?(max_pivots = 1_500_000) ?(stall_nodes = max_int)
    ?incumbent model =
  match Validate.check model with
  | Validate.Infeasible_constraint _ :: _ -> Infeasible
  | Validate.Unbounded_direction _ :: _ -> Unbounded
  | [] -> (
    let sense, _ = Model.objective model in
    let better a b =
      match sense with
      | Model.Minimize -> Rat.compare a b < 0
      | Model.Maximize -> Rat.compare a b > 0
    in
    let template = Simplex.prepare model in
    let a =
      solve_core ~max_nodes ~max_pivots ~stall_nodes ~incumbent ~template ~root:None
        ~carve:(Some subtrees) model
    in
    match a.c_carved with
    | [] -> a.c_result
    | boxes ->
      (* Every subtree starts from the phase-A incumbent (already the
         better of the caller's seed and any integral node phase A hit). *)
      let seed_values = Option.map (fun s -> s.values) a.c_best in
      let merged = ref a.c_best in
      let broadcasts = ref 0 in
      let total = ref a.c_counters in
      let any_limit = ref a.c_limit and any_unbounded = ref false in
      List.iter
        (fun box ->
          let dominated =
            match !merged with Some s -> not (better box.bound s.objective) | None -> false
          in
          if not dominated then begin
            let c =
              solve_core ~max_nodes ~max_pivots ~stall_nodes ~incumbent:seed_values ~template
                ~root:(Some box) ~carve:None model
            in
            (match c.c_result with Unbounded -> any_unbounded := true | _ -> ());
            if c.c_limit then any_limit := true;
            total := Counters.add !total c.c_counters;
            match c.c_best with
            | Some s
              when (match !merged with
                   | None -> true
                   | Some m -> better s.objective m.objective) ->
              merged := Some s;
              incr broadcasts
            | _ -> ()
          end)
        boxes;
      let counters = { !total with incumbent_broadcasts = !broadcasts } in
      if !any_unbounded then Unbounded
      else
        match Option.map (fun s -> { s with counters }) !merged with
        | Some sol -> if !any_limit then Feasible sol else Optimal sol
        | None -> Infeasible)
