open Tapa_cs_util
open Tapa_cs_device
module Ilp = Tapa_cs_ilp

type problem = {
  areas : Resource.t array;
  edges : (int * int * float) list;
  pulls : (int * int * float) list;
  k : int;
  capacities : Resource.t array;
  dist : int -> int -> int;
  fixed : (int * int) list;
}

type strategy = Exact | Heuristic | Auto

type stats = {
  backend : [ `Exact | `Heuristic | `Greedy ];
  counters : Ilp.Counters.t;
  proven_optimal : bool;
}

type result = { assignment : int array; cost : float; feasible : bool; stats : stats }

module Counters = Ilp.Counters

(* A heuristic answer's counters: only its move count. *)
let moves_only moves = { Counters.zero with refinement_moves = moves }

let num_items p = Array.length p.areas

let prng_for_tests seed = Prng.create seed

let validate p =
  if p.k <= 0 then invalid_arg "Partition: k must be positive";
  if Array.length p.capacities <> p.k then invalid_arg "Partition: one capacity per part";
  List.iter
    (fun (a, b, w) ->
      if a < 0 || a >= num_items p || b < 0 || b >= num_items p then
        invalid_arg "Partition: edge endpoint out of range";
      if not (Float.is_finite w) then invalid_arg "Partition: non-finite edge weight";
      if w < 0.0 then invalid_arg "Partition: negative edge weight")
    p.edges;
  List.iter
    (fun (i, part) ->
      if i < 0 || i >= num_items p || part < 0 || part >= p.k then
        invalid_arg "Partition: bad fixed placement")
    p.fixed;
  List.iter
    (fun (i, part, w) ->
      if i < 0 || i >= num_items p || part < 0 || part >= p.k then
        invalid_arg "Partition: bad pull";
      if not (Float.is_finite w) then invalid_arg "Partition: non-finite pull weight")
    p.pulls

let cost_of p assignment =
  let edge_cost =
    List.fold_left
      (fun acc (a, b, w) -> acc +. (w *. float_of_int (p.dist assignment.(a) assignment.(b))))
      0.0 p.edges
  in
  List.fold_left
    (fun acc (i, part, w) -> acc +. (w *. float_of_int (p.dist assignment.(i) part)))
    edge_cost p.pulls

let usage_of p assignment =
  let usage = Array.make p.k Resource.zero in
  Array.iteri (fun i part -> usage.(part) <- Resource.add usage.(part) p.areas.(i)) assignment;
  usage

let feasible_assignment p assignment =
  Array.length assignment = num_items p
  && Array.for_all (fun part -> part >= 0 && part < p.k) assignment
  && List.for_all (fun (i, part) -> assignment.(i) = part) p.fixed
  && (let usage = usage_of p assignment in
      let ok = ref true in
      Array.iteri (fun part u -> if not (Resource.fits u ~within:p.capacities.(part)) then ok := false) usage;
      !ok)

(* ------------------------------------------------------------------ *)
(* Local search: one per-problem index and one move evaluator behind
   first fit, move refinement, the prefix sweep, recursive bisection and
   simulated annealing.                                                 *)
(* ------------------------------------------------------------------ *)

(* Built once per problem, as flat arrays.  Item [i]'s neighbours are
   [nbr.(e)], with edge weight [nbr_w.(e)], for [e] from [nbr_at.(i)] to
   [nbr_at.(i + 1) - 1]; its pulls are [pull_to.(e)] with [pull_w.(e)]
   over [pull_at] likewise.  Both run in reverse edge- and pull-list
   order: every float sum over them keeps that one order, the order
   the pinned decisions (test/golden) were made in.  [dtab] is the
   k x k distance table (row [a] at [a * k]) and [pin] each item's fixed
   part, or -1. *)
type index = {
  p : problem;
  nbr_at : int array;
  nbr : int array;
  nbr_w : float array;
  pull_at : int array;
  pull_to : int array;
  pull_w : float array;
  dtab : int array;
  pin : int array;
}

(* The rows of a flat layout, [(at, xs, ws)]: entry [(i, x, w)] lands in
   row [i], which spans [at.(i)] to [at.(i + 1) - 1], and each row lists
   its entries last first. *)
let rows n entries =
  let at = Array.make (n + 1) 0 in
  List.iter (fun (i, _, _) -> at.(i + 1) <- at.(i + 1) + 1) entries;
  for i = 0 to n - 1 do
    at.(i + 1) <- at.(i) + at.(i + 1)
  done;
  let xs = Array.make at.(n) 0 and ws = Array.make at.(n) 0.0 in
  let next = Array.sub at 1 n in
  List.iter
    (fun (i, x, w) ->
      let e = next.(i) - 1 in
      next.(i) <- e;
      xs.(e) <- x;
      ws.(e) <- w)
    entries;
  (at, xs, ws)

let index p =
  let n = num_items p and k = p.k in
  let nbr_at, nbr, nbr_w =
    rows n (List.concat_map (fun (a, b, w) -> [ (a, b, w); (b, a, w) ]) p.edges)
  in
  let pull_at, pull_to, pull_w = rows n p.pulls in
  let pin = Array.make n (-1) in
  List.iter (fun (i, part) -> pin.(i) <- part) p.fixed;
  let dtab = Array.init (k * k) (fun ab -> p.dist (ab / k) (ab mod k)) in
  { p; nbr_at; nbr; nbr_w; pull_at; pull_to; pull_w; dtab; pin }

(* How far [used] goes past [total], as a fraction of it. *)
let[@inline] excess used total =
  if used <= total then 0.0 else float_of_int (used - total) /. float_of_int (if total > 1 then total else 1)

(* Normalized overflow of a part holding [u] plus [sign] times [a]: how
   far past capacity each resource goes, as a fraction, summed in
   resource order; drives infeasible starts back to feasibility.  Reads
   the vectors without building their sum. *)
let[@inline] overflow_with (cap : Resource.t) (u : Resource.t) sign (a : Resource.t) =
  excess (u.lut + (sign * a.lut)) cap.lut
  +. excess (u.ff + (sign * a.ff)) cap.ff
  +. excess (u.bram + (sign * a.bram)) cap.bram
  +. excess (u.dsp + (sign * a.dsp)) cap.dsp
  +. excess (u.uram + (sign * a.uram)) cap.uram

let[@inline] overflow cap u = overflow_with cap u 0 Resource.zero

(* A local search's position: the assignment, each part's usage and each
   part's overflow, all kept current by [move]. *)
type state = { a : int array; usage : Resource.t array; over : float array }

(* The state at [assignment], which the search then moves in place. *)
let state_of ix assignment =
  let caps = ix.p.capacities in
  let usage = usage_of ix.p assignment in
  { a = assignment; usage; over = Array.init ix.p.k (fun q -> overflow caps.(q) usage.(q)) }

let[@inline] total_overflow st =
  let acc = ref 0.0 in
  for q = 0 to Array.length st.over - 1 do
    acc := !acc +. st.over.(q)
  done;
  !acc

(* [cost_of] through the distance table, in the same order (edges, then
   pulls, in list order) and without allocating. *)
let[@inline] table_cost ix a =
  let k = ix.p.k and dtab = ix.dtab in
  let c = ref 0.0 and edges = ref ix.p.edges and pulls = ref ix.p.pulls in
  while match !edges with [] -> false | _ :: _ -> true do
    match !edges with
    | (x, y, w) :: rest ->
      c := !c +. (w *. float_of_int dtab.((a.(x) * k) + a.(y)));
      edges := rest
    | [] -> ()
  done;
  while match !pulls with [] -> false | _ :: _ -> true do
    match !pulls with
    | (i, part, w) :: rest ->
      c := !c +. (w *. float_of_int dtab.((a.(i) * k) + part));
      pulls := rest
    | [] -> ()
  done;
  !c

(* Every local search minimizes the cost plus [penalty] times the total
   overflow, so infeasible starts can be repaired. *)
let penalty = 1e7

(* Change of that working objective when item [i] moves to [dst], in
   O(degree), from the index's arrays and the state's cached overflow. *)
let[@inline] move_delta ix st i dst =
  let a = st.a and dtab = ix.dtab and k = ix.p.k in
  let src = a.(i) in
  let from_src = src * k and from_dst = dst * k in
  let d = ref 0.0 in
  for e = ix.nbr_at.(i) to ix.nbr_at.(i + 1) - 1 do
    let j = ix.nbr.(e) in
    if j <> i then begin
      let q = a.(j) in
      d := !d +. (ix.nbr_w.(e) *. float_of_int (dtab.(from_dst + q) - dtab.(from_src + q)))
    end
  done;
  for e = ix.pull_at.(i) to ix.pull_at.(i + 1) - 1 do
    let q = ix.pull_to.(e) in
    d := !d +. (ix.pull_w.(e) *. float_of_int (dtab.(from_dst + q) - dtab.(from_src + q)))
  done;
  let area = ix.p.areas.(i) and cap = ix.p.capacities and usage = st.usage in
  let over_src' = overflow_with cap.(src) usage.(src) (-1) area in
  let over_dst' = overflow_with cap.(dst) usage.(dst) 1 area in
  !d +. (penalty *. (over_src' -. st.over.(src) +. over_dst' -. st.over.(dst)))

let move ix st i dst =
  let src = st.a.(i) and area = ix.p.areas.(i) and cap = ix.p.capacities and usage = st.usage in
  usage.(src) <- Resource.sub usage.(src) area;
  usage.(dst) <- Resource.add usage.(dst) area;
  st.over.(src) <- overflow cap.(src) usage.(src);
  st.over.(dst) <- overflow cap.(dst) usage.(dst);
  st.a.(i) <- dst

(* BFS order from a peripheral (lowest-degree) item: on chains and grids
   this yields an order whose prefixes are contiguous regions, which is
   what both first-fit and the prefix sweep need to find minimum cuts. *)
let placement_order ?(perturb = true) ix rng =
  let n = num_items ix.p in
  let degree i = ix.nbr_at.(i + 1) - ix.nbr_at.(i) in
  let starts = Array.init n Fun.id in
  Array.sort
    (fun a b -> match Int.compare (degree a) (degree b) with 0 -> Int.compare a b | c -> c)
    starts;
  (* [order] doubles as the BFS queue: items [head..tail-1] wait. *)
  let visited = Array.make n false and order = Array.make n 0 in
  let tail = ref 0 in
  let enqueue v =
    visited.(v) <- true;
    order.(!tail) <- v;
    incr tail
  in
  Array.iter
    (fun s ->
      if not visited.(s) then begin
        let head = ref !tail in
        enqueue s;
        while !head < !tail do
          let v = order.(!head) in
          incr head;
          for e = ix.nbr_at.(v) to ix.nbr_at.(v + 1) - 1 do
            if not visited.(ix.nbr.(e)) then enqueue ix.nbr.(e)
          done
        done
      end)
    starts;
  (* Small random perturbation between multi-starts: swap a few entries.
     The first start keeps the clean BFS order, which on chain- and
     grid-shaped designs yields contiguous (and thus min-cut) prefixes. *)
  if perturb then
    for _ = 1 to Array.length order / 4 do
      let i = Prng.int rng (Array.length order) and j = Prng.int rng (Array.length order) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
  order

(* Cost of placing item [i] on [part] given the items placed so far (an
   unplaced item's part is -1): its edges to placed neighbours, then its
   pulls. *)
let place_cost ix assignment i part =
  let dtab = ix.dtab and row = part * ix.p.k in
  let c = ref 0.0 in
  for e = ix.nbr_at.(i) to ix.nbr_at.(i + 1) - 1 do
    let q = assignment.(ix.nbr.(e)) in
    if q >= 0 then c := !c +. (ix.nbr_w.(e) *. float_of_int dtab.(row + q))
  done;
  for e = ix.pull_at.(i) to ix.pull_at.(i + 1) - 1 do
    c := !c +. (ix.pull_w.(e) *. float_of_int dtab.(row + ix.pull_to.(e)))
  done;
  !c

(* First fit over [order]: each item not yet placed goes to its pinned
   part, else to the part with the smallest key: its [place_cost] when
   [costed] (else 0), plus 1e9 x (1 + overflow) when it does not fit;
   then the utilization it leaves; ties to the lower part. *)
let first_fit ix ~costed order assignment usage =
  let p = ix.p in
  Array.iter
    (fun i ->
      if assignment.(i) < 0 then begin
        let best = ref ix.pin.(i) and area = p.areas.(i) in
        if !best < 0 then begin
          let best_cost = ref infinity and best_util = ref infinity in
          for part = 0 to p.k - 1 do
            let cap = p.capacities.(part) in
            let after = Resource.add usage.(part) area in
            let util = Resource.utilization after ~total:cap in
            let cost =
              (if costed then place_cost ix assignment i part else 0.0)
              +.
              if Resource.fits after ~within:cap then 0.0
              else 1e9 *. (1.0 +. overflow_with cap usage.(part) 1 area)
            in
            if cost < !best_cost || (cost = !best_cost && util < !best_util) then begin
              best_cost := cost;
              best_util := util;
              best := part
            end
          done
        end;
        assignment.(i) <- !best;
        usage.(!best) <- Resource.add usage.(!best) area
      end)
    order

(* Move refinement: relocate single items while it strictly helps, for at
   most [max_passes] passes over the items, reshuffled by [rng] before
   each pass when given, else in index order.  Returns the number of
   moves made. *)
let refine_moves ?rng ix ~max_passes assignment =
  let n = num_items ix.p in
  let st = state_of ix assignment in
  let moves = ref 0 in
  let improved = ref true in
  let passes = ref 0 in
  let items = Array.init n Fun.id in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    Option.iter (fun rng -> Prng.shuffle rng items) rng;
    Array.iter
      (fun i ->
        if ix.pin.(i) < 0 then
          for part = 0 to ix.p.k - 1 do
            if part <> st.a.(i) && move_delta ix st i part < -1e-9 then begin
              move ix st i part;
              incr moves;
              improved := true
            end
          done)
      items
  done;
  !moves

(* The annealer scores proposals in blocks of [anneal_block] steps, and
   rejects an uphill proposal outright when its delta exceeds
   [reject_factor] times the temperature at the start of its block and
   its uniform draw u is non-zero: the temperature only falls within the
   block, so exp (-delta / temp) < exp (-39.9) < 2^-53 <= u and the
   Metropolis test would reject it too (DESIGN §5h). *)
let anneal_block = 256
let reject_factor = 40.0

(* Deterministic simulated annealing from [init] (pinned items never
   move): single-item relocations drawn from a Prng seeded with [seed],
   geometric cooling over [iters] proposals, Metropolis acceptance.  The
   answer is a pure function of the inputs, which keeps the portfolio's
   arbitration deterministic.  Returns the cheapest feasible
   assignment observed with the number of accepted moves, or [None] when
   the walk never reached feasibility. *)
let anneal ix ~seed ~iters init =
  let p = ix.p in
  let n = num_items p in
  let st = state_of ix (Array.copy init) in
  let moves = ref 0 in
  let best = ref None in
  let consider_best () =
    if total_overflow st = 0.0 then begin
      let c = table_cost ix st.a in
      match !best with
      | Some (bc, _) when bc <= c -> ()
      | _ -> best := Some (c, Array.copy st.a)
    end
  in
  consider_best ();
  if n > 0 && p.k > 1 && iters > 0 then begin
    let rng = Prng.create seed in
    (* Temperature: start proportional to the objective scale, cool
       geometrically to ~1/1000th over the iteration budget. *)
    let obj0 = table_cost ix st.a +. (penalty *. total_overflow st) in
    let t0 = Stdlib.max 1.0 (0.10 *. Float.abs obj0) in
    let ratio = 1e-3 in
    let temp it = t0 *. (ratio ** (float_of_int it /. float_of_int iters)) in
    let movable_ids = Array.of_list (List.filter (fun i -> ix.pin.(i) < 0) (List.init n Fun.id)) in
    let m = Array.length movable_ids in
    let block_temp = ref t0 in
    if m > 0 then
      for it = 0 to iters - 1 do
        if it mod anneal_block = 0 then block_temp := temp it;
        let i = movable_ids.(Prng.int rng m) in
        let dst = Prng.int rng p.k in
        if dst <> st.a.(i) then begin
          let delta = move_delta ix st i dst in
          if delta < 0.0 then begin
            move ix st i dst;
            incr moves;
            consider_best ()
          end
          else begin
            let u = Prng.float rng 1.0 in
            if
              (not (u > 0.0 && delta > reject_factor *. !block_temp))
              && u < Float.exp (-.delta /. temp it)
            then begin
              move ix st i dst;
              incr moves
            end
          end
        end
      done;
    consider_best ()
  end;
  match !best with
  | Some (_, a) when feasible_assignment p a -> Some (a, !moves)
  | _ -> None

let heuristic_once ?(perturb = true) ix rng =
  let p = ix.p in
  let assignment = Array.make (num_items p) (-1) in
  let usage = Array.make p.k Resource.zero in
  first_fit ix ~costed:true (placement_order ~perturb ix rng) assignment usage;
  let moves = refine_moves ~rng ix ~max_passes:40 assignment in
  (assignment, moves)

(* For two-way instances, sweep every contiguous BFS-prefix cut.  On
   chain- and grid-shaped dataflow designs (stencil chains, systolic
   arrays) the optimal bisection is a contiguous prefix, which single-move
   refinement cannot always reach across zero-gain plateaus. *)
let sweep_two_way ix =
  let p = ix.p in
  if p.k <> 2 then None
  else begin
    let n = num_items p in
    let order = placement_order ~perturb:false ix (Prng.create 0) in
    let best = ref None in
    let assignment = Array.make n 1 in
    (* Start with everything on part 1, move the prefix to part 0 one item
       at a time, re-evaluating cost and feasibility at each cut (a full
       re-sum: an incremental one could flip the 1e-12 ties).  Equal
       costs (every cut of a uniform chain) break toward the balanced cut
       so recursive sub-levels stay solvable. *)
    for cut = 1 to n - 1 do
      assignment.(order.(cut - 1)) <- 0;
      if feasible_assignment p assignment then begin
        let c = table_cost ix assignment in
        let usage = usage_of p assignment in
        let balance =
          Float.max
            (Resource.utilization usage.(0) ~total:p.capacities.(0))
            (Resource.utilization usage.(1) ~total:p.capacities.(1))
        in
        match !best with
        | Some (bc, bb, _) when bc < c -. 1e-12 || (Float.abs (bc -. c) <= 1e-12 && bb <= balance) -> ()
        | _ -> best := Some (c, balance, Array.copy assignment)
      end
    done;
    Option.map (fun (c, _, a) -> (a, c)) !best
  end

(* Four first-fit + refinement starts, then the prefix sweep; the best
   answer as [(assignment, cost, feasible, moves)], feasible ones first. *)
let heuristic ~seed ix =
  let p = ix.p in
  let rng = Prng.create seed in
  let best = ref None in
  let total_moves = ref 0 in
  let consider assignment moves =
    total_moves := !total_moves + moves;
    let feasible = feasible_assignment p assignment in
    let cost = table_cost ix assignment in
    let better =
      match !best with
      | None -> true
      | Some (bf, bc, _) -> (feasible && not bf) || (feasible = bf && cost < bc -. 1e-12)
    in
    if better then best := Some (feasible, cost, Array.copy assignment)
  in
  for start = 1 to 4 do
    let assignment, moves = heuristic_once ~perturb:(start > 1) ix (Prng.split rng) in
    consider assignment moves
  done;
  Option.iter (fun (a, _) -> consider a 0) (sweep_two_way ix);
  let feasible, cost, assignment = Option.get !best in
  (assignment, cost, feasible, !total_moves)

(* ------------------------------------------------------------------ *)
(* Greedy backend: deterministic first-fit-decreasing by area.  The last
   rung of the compile path's fallback chain — no search, no randomness,
   always terminates; may return an infeasible or high-cut answer, which
   the caller surfaces as degraded rather than failing outright.         *)
(* ------------------------------------------------------------------ *)

(* Pinned items first, then the biggest items (ties broken by id), each
   onto the fitting part with the lowest resulting utilization; when
   nothing fits, the least-overflowing part. *)
let greedy_assignment ix =
  let p = ix.p in
  let n = num_items p in
  let size = Array.map (fun a -> Resource.utilization a ~total:p.capacities.(0)) p.areas in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> match Float.compare size.(b) size.(a) with 0 -> Int.compare a b | c -> c)
    order;
  let assignment = Array.make n (-1) in
  first_fit ix ~costed:false
    (Array.append (Array.of_list (List.map fst p.fixed)) order)
    assignment (Array.make p.k Resource.zero);
  assignment

let greedy p =
  validate p;
  if num_items p = 0 then None
  else begin
    let assignment = greedy_assignment (index p) in
    Some
      {
        assignment;
        cost = cost_of p assignment;
        feasible = feasible_assignment p assignment;
        stats = { backend = `Greedy; counters = Counters.zero; proven_optimal = false };
      }
  end

(* ------------------------------------------------------------------ *)
(* Exact backend: 0-1 ILP with pairwise distance linearization.        *)
(* ------------------------------------------------------------------ *)

(* Edge weights are floats (bit widths scaled by λ); the ILP needs exact
   rationals.  Weights come from integer bit widths and small rational λ,
   so a bounded-denominator conversion is exact in practice. *)
let rat_of_weight w = Rat.of_float_approx ~max_den:10_000 w

(* Exact rational objective of an assignment — the same arithmetic the
   ILP objective uses (edge weights through [rat_of_weight], integer
   distances), so equality with the root LP bound is a proof of
   optimality for the portfolio's anneal answer. *)
let cost_rat p assignment =
  let d a b = Rat.of_int (p.dist a b) in
  let edge =
    List.fold_left
      (fun acc (a, b, w) ->
        Rat.add acc (Rat.mul (rat_of_weight w) (d assignment.(a) assignment.(b))))
      Rat.zero p.edges
  in
  List.fold_left
    (fun acc (i, part, w) -> Rat.add acc (Rat.mul (rat_of_weight w) (d assignment.(i) part)))
    edge p.pulls

(* Lower a problem to its 0-1 ILP.  Returns the model, the encoded warm
   incumbent (when given) and the decoder from ILP variable values back
   to an assignment.  Shared by the flat exact backend and the
   portfolio, which additionally needs the model itself for the root LP
   bound and the carved search. *)
let build_ilp ~incumbent p =
  let n = num_items p in
  let m = Ilp.Model.create () in
  let r_area (r : Resource.t) = [ r.lut; r.ff; r.bram; r.dsp; r.uram ] in
  let r_names = [ "LUT"; "FF"; "BRAM"; "DSP"; "URAM" ] in
  let r_name ridx = List.nth r_names ridx in
  if p.k = 2 then begin
    (* One binary per item: its part index. *)
    let y = Array.init n (fun i -> Ilp.Model.add_var m ~name:(Printf.sprintf "y%d" i) Ilp.Model.Binary) in
    List.iter
      (fun (i, part) ->
        Ilp.Model.add_constraint m
          ~name:(Printf.sprintf "fix[%d]" i)
          (Ilp.Linear.var y.(i)) Ilp.Model.Eq (Rat.of_int part))
      p.fixed;
    (* Capacity of part 1: sum area*y <= cap1.  Part 0: total - sum area*y <= cap0. *)
    List.iteri
      (fun ridx _ ->
        let pick r = List.nth (r_area r) ridx in
        let expr = Ilp.Linear.of_terms (List.init n (fun i -> (y.(i), Rat.of_int (pick p.areas.(i))))) in
        Ilp.Model.add_constraint m
          ~name:(Printf.sprintf "cap[p1].%s" (r_name ridx))
          expr Ilp.Model.Le (Rat.of_int (pick p.capacities.(1)));
        let total = Array.fold_left (fun acc a -> acc + pick a) 0 p.areas in
        Ilp.Model.add_constraint m
          ~name:(Printf.sprintf "cap[p0].%s" (r_name ridx))
          expr Ilp.Model.Ge (Rat.of_int (total - pick p.capacities.(0))))
      (r_area Resource.zero);
    let d01 = p.dist 0 1 in
    let obj = ref Ilp.Linear.zero in
    let cut_vars =
      List.map
        (fun (a, b, w) ->
          let e = Ilp.Model.add_var m Ilp.Model.Continuous ~ub:Rat.one in
          let open Ilp.Linear in
          Ilp.Model.add_constraint m (sub (var e) (sub (var y.(a)) (var y.(b)))) Ilp.Model.Ge Rat.zero;
          Ilp.Model.add_constraint m (sub (var e) (sub (var y.(b)) (var y.(a)))) Ilp.Model.Ge Rat.zero;
          obj := add !obj (var e ~coeff:(Rat.mul (rat_of_weight w) (Rat.of_int d01)));
          (e, a, b))
        p.edges
    in
    List.iter
      (fun (i, part, w) ->
        (* w * dist(y_i, part) = w*d(0,part) + w*(d(1,part)-d(0,part))*y_i *)
        let d0 = p.dist 0 part and d1 = p.dist 1 part in
        let wr = rat_of_weight w in
        let open Ilp.Linear in
        obj := add !obj (constant (Rat.mul wr (Rat.of_int d0)));
        obj := add !obj (var y.(i) ~coeff:(Rat.mul wr (Rat.of_int (d1 - d0)))))
      p.pulls;
    Ilp.Model.set_objective m Ilp.Model.Minimize !obj;
    let incumbent_values =
      Option.map
        (fun assign ->
          let values = Array.make (Ilp.Model.num_vars m) Rat.zero in
          Array.iteri (fun i part -> values.(y.(i)) <- Rat.of_int part) assign;
          List.iter
            (fun (e, a, b) -> values.(e) <- Rat.of_int (abs (assign.(a) - assign.(b))))
            cut_vars;
          values)
        incumbent
    in
    let decode values =
      Array.init n (fun i -> if Rat.is_zero values.(y.(i)) then 0 else 1)
    in
    (m, incumbent_values, decode)
  end
  else begin
    (* x.(i).(part) assignment binaries. *)
    let x =
      Array.init n (fun i ->
          Array.init p.k (fun part ->
              Ilp.Model.add_var m ~name:(Printf.sprintf "x%d_%d" i part) Ilp.Model.Binary))
    in
    for i = 0 to n - 1 do
      let expr = Ilp.Linear.of_terms (List.init p.k (fun part -> (x.(i).(part), Rat.one))) in
      Ilp.Model.add_constraint m ~name:(Printf.sprintf "assign[%d]" i) expr Ilp.Model.Eq Rat.one
    done;
    List.iter
      (fun (i, part) ->
        Ilp.Model.add_constraint m
          ~name:(Printf.sprintf "fix[%d]" i)
          (Ilp.Linear.var x.(i).(part)) Ilp.Model.Eq Rat.one)
      p.fixed;
    for part = 0 to p.k - 1 do
      List.iteri
        (fun ridx _ ->
          let pick r = List.nth (r_area r) ridx in
          let expr =
            Ilp.Linear.of_terms (List.init n (fun i -> (x.(i).(part), Rat.of_int (pick p.areas.(i)))))
          in
          Ilp.Model.add_constraint m
            ~name:(Printf.sprintf "cap[p%d].%s" part (r_name ridx))
            expr Ilp.Model.Le (Rat.of_int (pick p.capacities.(part))))
        (r_area Resource.zero)
    done;
    let obj = ref Ilp.Linear.zero in
    let zvars = ref [] in
    List.iter
      (fun (a, b, w) ->
        for pa = 0 to p.k - 1 do
          for pb = 0 to p.k - 1 do
            let d = p.dist pa pb in
            if d > 0 then begin
              let z = Ilp.Model.add_var m Ilp.Model.Continuous ~ub:Rat.one in
              let open Ilp.Linear in
              (* z >= x_a,pa + x_b,pb - 1 *)
              Ilp.Model.add_constraint m
                (sub (var z) (add (var x.(a).(pa)) (var x.(b).(pb))))
                Ilp.Model.Ge Rat.minus_one;
              obj := add !obj (var z ~coeff:(Rat.mul (rat_of_weight w) (Rat.of_int d)));
              zvars := (z, a, pa, b, pb) :: !zvars
            end
          done
        done)
      p.edges;
    List.iter
      (fun (i, part, w) ->
        let wr = rat_of_weight w in
        for pa = 0 to p.k - 1 do
          let d = p.dist pa part in
          if d > 0 then
            obj := Ilp.Linear.add !obj (Ilp.Linear.var x.(i).(pa) ~coeff:(Rat.mul wr (Rat.of_int d)))
        done)
      p.pulls;
    Ilp.Model.set_objective m Ilp.Model.Minimize !obj;
    let incumbent_values =
      Option.map
        (fun assign ->
          let values = Array.make (Ilp.Model.num_vars m) Rat.zero in
          Array.iteri (fun i part -> values.(x.(i).(part)) <- Rat.one) assign;
          List.iter
            (fun (z, a, pa, b, pb) ->
              if assign.(a) = pa && assign.(b) = pb then values.(z) <- Rat.one)
            !zvars;
          values)
        incumbent
    in
    let decode values =
      Array.init n (fun i ->
          let part = ref 0 in
          for pa = 0 to p.k - 1 do
            if Rat.equal values.(x.(i).(pa)) Rat.one then part := pa
          done;
          !part)
    in
    (m, incumbent_values, decode)
  end

(* ------------------------------------------------------------------ *)
(* Capacity proof.  Once every item is placed the ILP's cut variables
   are free, so an instance has a feasible answer exactly when its items
   pack into the parts under every capacity and pin.  The threshold
   ladders hand the exact backend splits that cannot be packed, and
   branch-and-bound without an incumbent spends its whole node budget
   failing to find what a packing search rules out in microseconds.    *)
(* ------------------------------------------------------------------ *)

exception Packed

(* Nodes the packing search may visit before it answers "not proven". *)
let proof_budget = 100_000

(* [true] only when a depth-first search over areas, capacities and pins
   is exhausted without a packing.  Pinned items are placed first; the
   free ones go largest first, and two symmetries are cut, both sound
   because every item left to place is free:
   - identical items take non-decreasing parts (permuting them among
     their parts keeps every usage);
   - an item skips a part whose capacity and usage equal those of an
     earlier part it may take (swapping the two parts' later contents
     turns any packing through the skipped part into one through the
     earlier part).
   A branch stops when some resource's remaining area exceeds the room
   of the parts that could still take a remaining item. *)
let capacity_infeasible p =
  let n = num_items p and k = p.k in
  let vec (r : Resource.t) = [| r.lut; r.ff; r.bram; r.dsp; r.uram |] in
  let area = Array.map vec p.areas and cap = Array.map vec p.capacities in
  let pin = Array.make n (-1) and clash = ref false in
  List.iter
    (fun (i, part) ->
      if pin.(i) >= 0 && pin.(i) <> part then clash := true;
      pin.(i) <- part)
    p.fixed;
  let used = Array.make_matrix k 5 0 in
  let place sign i part =
    for r = 0 to 4 do
      used.(part).(r) <- used.(part).(r) + (sign * area.(i).(r))
    done
  in
  let fits part a =
    let ok = ref true in
    for r = 0 to 4 do
      if used.(part).(r) + a.(r) > cap.(part).(r) then ok := false
    done;
    !ok
  in
  Array.iteri (fun i part -> if part >= 0 then place 1 i part) pin;
  if !clash then true
  else if Array.exists (Array.exists (fun a -> a < 0)) area then false
  else if Array.exists2 (Array.exists2 ( > )) used cap then true
  else begin
    let total = Array.fold_left Resource.add Resource.zero p.capacities in
    let size = Array.map (fun a -> Resource.utilization a ~total) p.areas in
    let free = Array.of_list (List.filter (fun i -> pin.(i) < 0) (List.init n Fun.id)) in
    Array.stable_sort
      (fun a b ->
        match Float.compare size.(b) size.(a) with 0 -> compare area.(b) area.(a) | c -> c)
      free;
    let same (a : int array) b =
      let s = ref true in
      for r = 0 to 4 do
        if a.(r) <> b.(r) then s := false
      done;
      !s
    in
    let m = Array.length free in
    let twin_item = Array.init m (fun d -> d > 0 && same area.(free.(d)) area.(free.(d - 1))) in
    (* Area of the items from depth [d] on, and its smallest component. *)
    let rem = Array.make_matrix (m + 1) 5 0 and low = Array.make_matrix (m + 1) 5 max_int in
    for d = m - 1 downto 0 do
      for r = 0 to 4 do
        rem.(d).(r) <- rem.(d + 1).(r) + area.(free.(d)).(r);
        low.(d).(r) <- Stdlib.min low.(d + 1).(r) area.(free.(d)).(r)
      done
    done;
    let twin_part lo q =
      let t = ref false in
      for q' = lo to q - 1 do
        if same cap.(q') cap.(q) && same used.(q') used.(q) then t := true
      done;
      !t
    in
    let room = Array.make 5 0 in
    let room_suffices d =
      Array.fill room 0 5 0;
      for q = 0 to k - 1 do
        if fits q low.(d) then
          for r = 0 to 4 do
            room.(r) <- room.(r) + cap.(q).(r) - used.(q).(r)
          done
      done;
      let ok = ref true in
      for r = 0 to 4 do
        if rem.(d).(r) > room.(r) then ok := false
      done;
      !ok
    in
    let nodes = ref 0 and part_of = Array.make m 0 in
    let rec go d =
      if d = m then raise Packed;
      incr nodes;
      if !nodes > proof_budget then raise Exit;
      if room_suffices d then begin
        let i = free.(d) and lo = if twin_item.(d) then part_of.(d - 1) else 0 in
        for q = lo to k - 1 do
          if fits q area.(i) && not (twin_part lo q) then begin
            place 1 i q;
            part_of.(d) <- q;
            go (d + 1);
            place (-1) i q
          end
        done
      end
    in
    match go 0 with () -> true | exception (Packed | Exit) -> false
  end

let exact ~incumbent p =
  if incumbent = None && capacity_infeasible p then None
  else
  let m, incumbent_values, decode = build_ilp ~incumbent p in
  match
    Ilp.Branch_bound.solve ~max_nodes:800 ~max_pivots:300_000 ~stall_nodes:80
      ?incumbent:incumbent_values m
  with
  | Ilp.Branch_bound.Optimal sol -> Some (decode sol.values, sol.counters, true)
  | Ilp.Branch_bound.Feasible sol -> Some (decode sol.values, sol.counters, false)
  | Ilp.Branch_bound.Infeasible | Ilp.Branch_bound.Unbounded -> None

(* ------------------------------------------------------------------ *)
(* Hierarchical backend for k > 2: recursive two-way bisection over
   contiguous part ranges (exact at each level when small enough), then a
   global move-refinement polish.  Mirrors the paper's own "two-way
   ILP-based partitioning scheme" (§4.5) applied at the cluster level.    *)
(* ------------------------------------------------------------------ *)

let avg_dist p parts target =
  let s = List.fold_left (fun acc q -> acc + p.dist q target) 0 parts in
  float_of_int s /. float_of_int (List.length parts)

(* Binary-variable budget up to which [Auto] still tries the exact
   backend on a two-way split; joint k-way ILPs get half of it and the
   grouped decomposition's portfolio twice it. *)
let exact_var_limit = 28

(* One two-way level: the heuristic, then the exact backend seeded with
   its answer when the split is small enough. *)
let solve_two_way ~seed sub =
  let a, cost, feasible, m = heuristic ~seed (index sub) in
  let heuristic_answer ~proven = if feasible then Some (a, moves_only m, proven) else None in
  (* A feasible zero-cost split is optimal by definition (costs are
     nonnegative): skip the ILP entirely. *)
  if feasible && cost <= 1e-12 then heuristic_answer ~proven:true
  else
    let incumbent = if feasible then Some a else None in
    match if num_items sub <= exact_var_limit then exact ~incumbent sub else None with
    | Some _ as r -> r
    | None -> heuristic_answer ~proven:false

let hierarchical ~seed ix =
  let p = ix.p in
  let n = num_items p in
  let assignment = Array.make n (-1) in
  let counters = ref Counters.zero in
  let failed = ref false in
  (* BFS over (part range, member items); sibling ranges are known, so
     edges leaving the current range become pulls toward whichever half
     sits closer to the partner's (eventual) range. *)
  let range_of = Array.make n (0, p.k) in
  let queue = Queue.create () in
  Queue.add ((0, p.k), List.init n Fun.id) queue;
  while (not (Queue.is_empty queue)) && not !failed do
    let (lo, hi), members = Queue.pop queue in
    if hi - lo = 1 then List.iter (fun i -> assignment.(i) <- lo) members
    else begin
      let mid = (lo + hi) / 2 in
      let ga = List.init (mid - lo) (fun i -> lo + i) in
      let gb = List.init (hi - mid) (fun i -> mid + i) in
      let cap parts = Resource.sum (List.map (fun q -> p.capacities.(q)) parts) in
      let member_arr = Array.of_list members in
      let index_of = Hashtbl.create 16 in
      Array.iteri (fun i tid -> Hashtbl.replace index_of tid i) member_arr;
      let sub_edges = ref [] and sub_pulls = ref [] and sub_fixed = ref [] in
      let add_pull i target w =
        let da = avg_dist p ga target and db = avg_dist p gb target in
        if Float.abs (da -. db) > 1e-9 && w > 0.0 then
          sub_pulls := (i, (if da < db then 0 else 1), w *. Float.abs (da -. db)) :: !sub_pulls
      in
      Array.iteri
        (fun i tid ->
          for e = ix.nbr_at.(tid) to ix.nbr_at.(tid + 1) - 1 do
            let other = ix.nbr.(e) and w = ix.nbr_w.(e) in
            match Hashtbl.find_opt index_of other with
            | Some j -> if i < j then sub_edges := (i, j, w) :: !sub_edges
            | None ->
              if assignment.(other) >= 0 then add_pull i assignment.(other) w
              else begin
                (* partner is in a sibling range; use its range midpoint *)
                let rlo, rhi = range_of.(other) in
                add_pull i ((rlo + rhi - 1) / 2) w
              end
          done;
          for e = ix.pull_at.(tid) to ix.pull_at.(tid + 1) - 1 do
            add_pull i ix.pull_to.(e) ix.pull_w.(e)
          done;
          if ix.pin.(tid) >= 0 then
            sub_fixed := (i, if ix.pin.(tid) < mid then 0 else 1) :: !sub_fixed)
        member_arr;
      let sub =
        {
          areas = Array.map (fun tid -> p.areas.(tid)) member_arr;
          edges = !sub_edges;
          pulls = !sub_pulls;
          k = 2;
          capacities = [| cap ga; cap gb |];
          dist = (fun a b -> abs (a - b));
          fixed = !sub_fixed;
        }
      in
      match solve_two_way ~seed sub with
      | None -> failed := true
      | Some (a, cnt, _) ->
        counters := Counters.add !counters cnt;
        let ma = ref [] and mb = ref [] in
        Array.iteri
          (fun i tid ->
            if a.(i) = 0 then begin
              range_of.(tid) <- (lo, mid);
              ma := tid :: !ma
            end
            else begin
              range_of.(tid) <- (mid, hi);
              mb := tid :: !mb
            end)
          member_arr;
        Queue.add ((lo, mid), List.rev !ma) queue;
        Queue.add ((mid, hi), List.rev !mb) queue
    end
  done;
  if !failed then None
  else begin
    let moves = refine_moves ix ~max_passes:20 assignment in
    Some (assignment, Counters.add !counters (moves_only moves))
  end

let binary_var_count p = if p.k = 2 then num_items p else num_items p * p.k

(* ------------------------------------------------------------------ *)
(* Portfolio: deterministic simulated annealing, then the carved exact
   search, on the same subproblem.

   The anneal answer is certified when its exact rational cost equals
   the root LP bound, a proof of optimality: it is returned and the
   search is never built.  Otherwise the search runs and the answer is
   a pure function of the two deterministic results.                    *)
(* ------------------------------------------------------------------ *)

let anneal_iters p = Stdlib.min 200_000 (2_000 * num_items p)

let portfolio ~seed ix =
  let p = ix.p in
  if capacity_infeasible p then None
  else
  let m, _, decode = build_ilp ~incumbent:None p in
  let lp_bound =
    match (Ilp.Simplex.solve_float_first (Ilp.Simplex.prepare m)).ff_result with
    | Ilp.Simplex.Optimal s -> Some s.objective
    | Ilp.Simplex.Infeasible | Ilp.Simplex.Unbounded -> None
    | exception Ilp.Simplex.Pivot_limit -> None
  in
  let annealed = anneal ix ~seed ~iters:(anneal_iters p) (greedy_assignment ix) in
  (* An anneal answer the search did not produce accounts only for the
     root LP solve. *)
  let anneal_won moves = { (moves_only moves) with lp_solves = 1; races_anneal = 1 } in
  match (annealed, lp_bound) with
  | Some (a, moves), Some b when Rat.equal (cost_rat p a) b -> Some (a, anneal_won moves, true)
  | _ -> (
    match Ilp.Branch_bound.solve_carved ~max_nodes:800 ~max_pivots:300_000 ~stall_nodes:80 m with
    | (Ilp.Branch_bound.Optimal sol | Ilp.Branch_bound.Feasible sol) as result -> (
      let proven = match result with Ilp.Branch_bound.Optimal _ -> true | _ -> false in
      let a = decode sol.values in
      (* An uncertified but feasible anneal answer can still beat a
         budget-limited exact incumbent; the search wins ties. *)
      match annealed with
      | Some (anneal_a, moves)
        when (not proven) && Rat.compare (cost_rat p anneal_a) (cost_rat p a) < 0 ->
        Some (anneal_a, { sol.counters with races_anneal = 1; refinement_moves = moves }, false)
      | _ -> Some (a, { sol.counters with races_exact = 1 }, proven))
    | Ilp.Branch_bound.Infeasible | Ilp.Branch_bound.Unbounded ->
      (* A budget-limited "Infeasible" only means no incumbent was found
         in budget; a feasible anneal answer refutes it. *)
      Option.map (fun (a, moves) -> (a, anneal_won moves, false)) annealed)

(* ------------------------------------------------------------------ *)
(* Subproblem fragments: renaming-invariant canonicalization and the
   second-level fragment cache.

   The grouped decomposition re-derives one subproblem per part group
   from scratch on every solve.  After a small design edit, a board
   fault or a farm re-placement, almost all of those subproblems are
   unchanged *up to renaming* — local task ids and part ids shift, the
   content does not.  Each subproblem is therefore canonicalized
   (renaming-invariant digest plus canonical form), solved in canonical
   space with a seed derived from its own content, memoized in a
   process-wide [Util.Memo], and mapped back through the permutation.
   The dirty set falls out for free: groups whose digest changed miss
   the cache and re-solve; untouched groups replay their fragment.

   Determinism contract (same as the solution cache): fragments change
   wall-clock only, never results.  Cold and warm solves are
   byte-identical by construction because *both* solve the canonical
   problem with the content-derived seed — the cache merely skips the
   recomputation.  The caller's seed must not enter fragment identity:
   the farm seeds every placement attempt differently and tenants seed
   independently, so a caller-seeded fragment would never be shared. *)
(* ------------------------------------------------------------------ *)

(* Exact serialization: every input the solvers consult is in the bytes
   ([dist] as its full k x k table, floats hex-exact), so two problems
   with equal [problem_bytes] are solution-equivalent.  Lists go in as
   given: the heuristics depend on their order, and the canonical
   problems the fragment key serializes have sorted lists already. *)
let problem_bytes p =
  let buf = Buffer.create 1024 in
  let int i =
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ';'
  in
  let flt f =
    Buffer.add_string buf (Printf.sprintf "%h" f);
    Buffer.add_char buf ';'
  in
  let res (r : Resource.t) = int r.lut; int r.ff; int r.bram; int r.dsp; int r.uram in
  int (num_items p);
  Array.iter res p.areas;
  int p.k;
  Array.iter res p.capacities;
  int (List.length p.edges);
  List.iter (fun (a, b, w) -> int a; int b; flt w) p.edges;
  int (List.length p.pulls);
  List.iter (fun (i, part, w) -> int i; int part; flt w) p.pulls;
  for a = 0 to p.k - 1 do
    for b = 0 to p.k - 1 do
      int (p.dist a b)
    done
  done;
  int (List.length p.fixed);
  List.iter (fun (i, part) -> int i; int part) p.fixed;
  Buffer.contents buf

(* Iterated structural color refinement (Weisfeiler-Leman over the
   bipartite item/part structure).  Initial colors come from content
   (areas, capacities); each round folds in the sorted multiset of each
   element's weighted relations — item edges, pulls in both directions,
   pins, and the distance row for parts.  Renumbering items or permuting
   parts permutes the color arrays but never changes any color value or
   any multiset, which is exactly the invariance the digest needs.  The
   round count is bounded and content-determined (stop when the distinct
   counts stabilize), so it is itself renaming-invariant.  More rounds
   only sharpen the canonical *order* (fewer index tie-breaks); they
   cannot affect correctness — ties are guarded by the exact
   serialization in the cache key, so a tie broken differently across
   renamings costs a cache miss, never a wrong replay. *)
let refine_rounds = 8

let refine_colors p =
  let n = num_items p and k = p.k in
  let dtab = Array.init k (fun a -> Array.init k (fun b -> p.dist a b)) in
  let adj = Array.make n [] in
  List.iter
    (fun (a, b, w) ->
      adj.(a) <- (w, b) :: adj.(a);
      adj.(b) <- (w, a) :: adj.(b))
    p.edges;
  let pulls_of = Array.make n [] and pulled = Array.make k [] in
  List.iter
    (fun (i, part, w) ->
      pulls_of.(i) <- (w, part) :: pulls_of.(i);
      pulled.(part) <- (w, i) :: pulled.(part))
    p.pulls;
  let pins_of = Array.make n [] and pinned = Array.make k [] in
  List.iter
    (fun (i, part) ->
      pins_of.(i) <- part :: pins_of.(i);
      pinned.(part) <- i :: pinned.(part))
    p.fixed;
  let res_str (r : Resource.t) =
    Printf.sprintf "%d,%d,%d,%d,%d" r.lut r.ff r.bram r.dsp r.uram
  in
  let item_c = Array.init n (fun i -> Digest.string ("I" ^ res_str p.areas.(i))) in
  let part_c = Array.init k (fun q -> Digest.string ("P" ^ res_str p.capacities.(q))) in
  let distinct a = List.length (List.sort_uniq compare (Array.to_list a)) in
  let sig_list parts = String.concat "" (List.sort compare parts) in
  let rounds = ref 0 and stable = ref false in
  while (not !stable) && !rounds < refine_rounds do
    let before = (distinct item_c, distinct part_c) in
    let item_c' =
      Array.init n (fun i ->
          let buf = Buffer.create 256 in
          Buffer.add_string buf item_c.(i);
          Buffer.add_char buf 'E';
          Buffer.add_string buf
            (sig_list (List.map (fun (w, j) -> Printf.sprintf "%h|" w ^ item_c.(j)) adj.(i)));
          Buffer.add_char buf 'U';
          Buffer.add_string buf
            (sig_list
               (List.map (fun (w, q) -> Printf.sprintf "%h|" w ^ part_c.(q)) pulls_of.(i)));
          Buffer.add_char buf 'F';
          Buffer.add_string buf (sig_list (List.map (fun q -> part_c.(q)) pins_of.(i)));
          Digest.string (Buffer.contents buf))
    in
    let part_c' =
      Array.init k (fun q ->
          let buf = Buffer.create 256 in
          Buffer.add_string buf part_c.(q);
          Buffer.add_char buf 'D';
          Buffer.add_string buf
            (sig_list
               (List.init k (fun q' -> Printf.sprintf "%d|" dtab.(q).(q') ^ part_c.(q'))));
          Buffer.add_char buf 'U';
          Buffer.add_string buf
            (sig_list (List.map (fun (w, i) -> Printf.sprintf "%h|" w ^ item_c.(i)) pulled.(q)));
          Buffer.add_char buf 'F';
          Buffer.add_string buf (sig_list (List.map (fun i -> item_c.(i)) pinned.(q)));
          Digest.string (Buffer.contents buf))
    in
    Array.blit item_c' 0 item_c 0 n;
    Array.blit part_c' 0 part_c 0 k;
    incr rounds;
    stable := (distinct item_c, distinct part_c) = before
  done;
  (item_c, part_c)

type canon = {
  c_problem : problem;  (* the canonical-space instance *)
  c_bytes : string;  (* [problem_bytes c_problem] *)
  c_digest : string;  (* renaming-invariant digest, hex *)
  c_items : int array;  (* canonical item position -> original item *)
  c_parts : int array;  (* canonical part position -> original part *)
}

let canonicalize p =
  let n = num_items p and k = p.k in
  let item_c, part_c = refine_colors p in
  (* Canonical order: refined color, ties broken by original index.  The
     tie-break is the one renaming-sensitive step — two automorphic
     items can land in either order — which is why the cache key carries
     the full canonical serialization besides the digest. *)
  let items = Array.init n Fun.id in
  Array.sort (fun a b -> compare (item_c.(a), a) (item_c.(b), b)) items;
  let parts = Array.init k Fun.id in
  Array.sort (fun a b -> compare (part_c.(a), a) (part_c.(b), b)) parts;
  let inv_item = Array.make n 0 and inv_part = Array.make k 0 in
  Array.iteri (fun ci oi -> inv_item.(oi) <- ci) items;
  Array.iteri (fun cq oq -> inv_part.(oq) <- cq) parts;
  let dtab = Array.init k (fun a -> Array.init k (fun b -> p.dist parts.(a) parts.(b))) in
  let c_problem =
    {
      areas = Array.map (fun oi -> p.areas.(oi)) items;
      edges =
        List.sort compare
          (List.map
             (fun (a, b, w) ->
               let a = inv_item.(a) and b = inv_item.(b) in
               (Stdlib.min a b, Stdlib.max a b, w))
             p.edges);
      pulls =
        List.sort compare
          (List.map (fun (i, part, w) -> (inv_item.(i), inv_part.(part), w)) p.pulls);
      k;
      capacities = Array.map (fun oq -> p.capacities.(oq)) parts;
      dist = (fun a b -> dtab.(a).(b));
      fixed =
        List.sort compare
          (List.map (fun (i, part) -> (inv_item.(i), inv_part.(part))) p.fixed);
    }
  in
  (* The invariant digest hashes only permutation-invariant views: the
     sorted color multisets and every relation re-expressed in color
     space, sorted. *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (string_of_int n);
  Buffer.add_char buf ';';
  Buffer.add_string buf (string_of_int k);
  Buffer.add_char buf ';';
  List.iter (Buffer.add_string buf) (List.sort compare (Array.to_list item_c));
  Buffer.add_char buf '/';
  List.iter (Buffer.add_string buf) (List.sort compare (Array.to_list part_c));
  Buffer.add_char buf '/';
  List.iter
    (fun (a, b, w) ->
      Buffer.add_string buf a;
      Buffer.add_string buf b;
      Buffer.add_string buf w;
      Buffer.add_char buf ';')
    (List.sort compare
       (List.map
          (fun (a, b, w) ->
            let ca = item_c.(a) and cb = item_c.(b) in
            (Stdlib.min ca cb, Stdlib.max ca cb, Printf.sprintf "%h" w))
          p.edges));
  Buffer.add_char buf '/';
  List.iter
    (fun (a, b, w) ->
      Buffer.add_string buf a;
      Buffer.add_string buf b;
      Buffer.add_string buf w;
      Buffer.add_char buf ';')
    (List.sort compare
       (List.map (fun (i, q, w) -> (item_c.(i), part_c.(q), Printf.sprintf "%h" w)) p.pulls));
  Buffer.add_char buf '/';
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf a;
      Buffer.add_string buf b;
      Buffer.add_char buf ';')
    (List.sort compare (List.map (fun (i, q) -> (item_c.(i), part_c.(q))) p.fixed));
  let c_digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  { c_problem; c_bytes = problem_bytes c_problem; c_digest; c_items = items; c_parts = parts }

let fragment_digest p = (canonicalize p).c_digest

type fragment_stats = {
  frag_hits : int;
  frag_misses : int;
  groups_resolved : int;
  frag_entries : int;
  frag_evictions : int;
}

let frag_cache : (int array * Counters.t) option Memo.t =
  Memo.create ~max_entries:8192 ()

let frag_resolved = Atomic.make 0

let fragment_stats () =
  let s = Memo.stats frag_cache in
  {
    frag_hits = s.Memo.hits;
    frag_misses = s.Memo.misses;
    groups_resolved = Atomic.get frag_resolved;
    frag_entries = s.Memo.young_entries + s.Memo.old_entries;
    frag_evictions = s.Memo.evictions;
  }

let reset_fragments () =
  Memo.reset frag_cache;
  Atomic.set frag_resolved 0

(* The canonical-space solve seeds its heuristics from the fragment's
   own content, never from the caller: farm attempts and independent
   tenants all seed differently, and a caller-seeded fragment would
   neither be shared across requests nor renaming-invariant. *)
let frag_seed bytes =
  let d = Digest.string bytes in
  (Char.code d.[0] lor (Char.code d.[1] lsl 8) lor (Char.code d.[2] lsl 16)
  lor (Char.code d.[3] lsl 24))
  land 0x3FFFFFFF

(* One per-group subproblem, solved directly (no cache): the portfolio
   when the exact search can afford it — a certified anneal answers the
   easy instances without building the search — otherwise anneal from
   the heuristic start with greedy as the last rung. *)
let solve_sub_core ~seed sub =
  let ix = index sub in
  let one c = { c with Counters.subproblems = 1 } in
  if binary_var_count sub <= 2 * exact_var_limit then
    Option.map (fun (a, cnt, _proven) -> (a, one cnt)) (portfolio ~seed ix)
  else begin
    let h, _, h_feasible, h_moves = heuristic ~seed ix in
    match anneal ix ~seed ~iters:(anneal_iters sub) h with
    (* no exact search ran, so this is not a portfolio win — only [subproblems] *)
    | Some (a, moves) -> Some (a, one (moves_only moves))
    | None when h_feasible -> Some (h, one (moves_only h_moves))
    | None ->
      (* last rung: first-fit-decreasing, accepted only when feasible *)
      let g = greedy_assignment ix in
      if feasible_assignment sub g then Some (g, one Counters.zero) else None
  end

(* Canonicalize, consult the fragment cache, solve in canonical space on
   a miss, map the assignment back through the item/part permutations.
   The key pairs the invariant digest with a hash of the exact canonical
   serialization: a digest collision or an automorphism tie broken
   differently can only cause a miss, never a wrong replay.  The cached array is shared; it
   is read (never mutated) while mapping back into a fresh array. *)
let solve_fragment sub =
  let c = canonicalize sub in
  let key = c.c_digest ^ "/" ^ Digest.to_hex (Digest.string c.c_bytes) in
  let solved, _hit =
    Memo.find_or_compute frag_cache ~key (fun () ->
        Atomic.incr frag_resolved;
        solve_sub_core ~seed:(frag_seed c.c_bytes) c.c_problem)
  in
  Option.map
    (fun (a, cnt) ->
      let back = Array.make (num_items sub) 0 in
      Array.iteri (fun ci part -> back.(c.c_items.(ci)) <- c.c_parts.(part)) a;
      (back, cnt))
    solved

(* Cluster-level chunking: the deterministic BFS placement order —
   structure only, no edge weights — packed contiguously into groups
   under a quantized utilization target.  Edit-stable by design:
   changing an edge weight or a pull cannot move a chunk boundary, so
   after a small design edit every untouched group re-derives the same
   subproblem and replays its fragment.  (A capacity change — e.g. a
   dead board — shifts boundaries only from the affected group onward:
   the dirty set is a suffix, not the whole design.)  The legacy greedy
   + cluster anneal (~295 ms of the 703 ms 100-FPGA/1000-task pin, and
   weight-sensitive: one edited weight reshuffles every group) remains
   the fallback when chunking cannot place feasibly. *)
let cluster_chunk gix =
  let gproblem = gix.p in
  let g = gproblem.k in
  let assignment = Array.copy gix.pin in
  let usage = Array.make g Resource.zero in
  Array.iteri
    (fun i q -> if q >= 0 then usage.(q) <- Resource.add usage.(q) gproblem.areas.(i))
    assignment;
  (* Fill groups toward a common utilization target with a little slack,
     quantized to 1/32 so a marginal change in total area or capacity
     cannot shift every boundary. *)
  let total_area = Resource.sum (Array.to_list gproblem.areas) in
  let total_cap = Resource.sum (Array.to_list gproblem.capacities) in
  let u = Resource.utilization total_area ~total:total_cap in
  let target = Float.min 1.0 (1.10 *. (Float.ceil (u *. 32.0) /. 32.0)) in
  let order = placement_order ~perturb:false gix (Prng.create 0) in
  let gi = ref 0 and ok = ref true in
  Array.iter
    (fun i ->
      if assignment.(i) < 0 then begin
        let fits q =
          Resource.fits
            (Resource.add usage.(q) gproblem.areas.(i))
            ~within:gproblem.capacities.(q)
        in
        let below q =
          Resource.utilization
            (Resource.add usage.(q) gproblem.areas.(i))
            ~total:gproblem.capacities.(q)
          <= target
        in
        (* monotone group pointer: chunks are contiguous in BFS order *)
        while !gi < g - 1 && not (fits !gi && below !gi) do
          incr gi
        done;
        if fits !gi then begin
          assignment.(i) <- !gi;
          usage.(!gi) <- Resource.add usage.(!gi) gproblem.areas.(i)
        end
        else ok := false
      end)
    order;
  if !ok && feasible_assignment gproblem assignment then Some assignment else None

(* ------------------------------------------------------------------ *)
(* Grouped decomposition (hierarchical floorplanning across server
   nodes): a cluster-level assignment of items to part *groups* (the
   FPGAs of one server node), then one independent subproblem per group
   — each through the portfolio — solved concurrently on the pool, stitched
   into a global assignment and polished across the cut.  Feasibility of
   the stitched result is by construction (each subproblem respects its
   own parts' capacities); the final anneal polish only ever replaces it
   with a feasible, no-worse assignment.                                *)
(* ------------------------------------------------------------------ *)

let solve_grouped ~seed ?pool ~groups ix =
  let p = ix.p in
  let n = num_items p in
  let g_count = 1 + Array.fold_left Stdlib.max 0 groups in
  let gparts = Array.make g_count [] in
  for part = p.k - 1 downto 0 do
    gparts.(groups.(part)) <- part :: gparts.(groups.(part))
  done;
  if Array.exists (fun l -> l = []) gparts then None
  else begin
    let parts_arr = Array.map Array.of_list gparts in
    (* Cluster-level metric: min distance between any two member parts. *)
    let gdist = Array.make_matrix g_count g_count max_int in
    for a = 0 to p.k - 1 do
      for b = 0 to p.k - 1 do
        let ga = groups.(a) and gb = groups.(b) in
        let d = ix.dtab.((a * p.k) + b) in
        if d < gdist.(ga).(gb) then gdist.(ga).(gb) <- d
      done
    done;
    let gproblem =
      {
        areas = p.areas;
        edges = p.edges;
        pulls = List.map (fun (i, part, w) -> (i, groups.(part), w)) p.pulls;
        k = g_count;
        capacities =
          (* 10% headroom under the summed member capacities: a group
             filled to the exact sum is a bin-packing instance with zero
             slack, which the per-part subproblem routinely cannot
             split.  The headroom trades a little cluster-level freedom
             for subproblems that actually place. *)
          Array.map
            (fun parts ->
              Resource.scale 0.9 (Resource.sum (List.map (fun q -> p.capacities.(q)) parts)))
            gparts;
        dist = (fun a b -> gdist.(a).(b));
        fixed = List.map (fun (i, part) -> (i, groups.(part))) p.fixed;
      }
    in
    (* Cluster-level solve: deterministic weight-independent BFS
       chunking first (edit-stable, which is what keeps the fragment
       cache warm across design edits), falling back to greedy first
       fit + annealing when chunking cannot place.  The fallback anneals
       rather than refines: move refinement takes only strictly
       improving moves and re-scans every group for every item on each
       of up to 40 passes, while the annealer also takes uphill moves
       from the greedy packing and stops after a fixed proposal budget
       (400 per item, at most 400,000) — its cost at 1000 tasks x dozens
       of groups is known in advance. *)
    let gix = index gproblem in
    let cluster =
      match cluster_chunk gix with
      | Some a -> Some (a, Counters.zero)
      | None -> (
        let g0 = greedy_assignment gix in
        match anneal gix ~seed ~iters:(Stdlib.min 400_000 (400 * n)) g0 with
        | Some (a, moves) -> Some (a, moves_only moves)
        | None -> if feasible_assignment gproblem g0 then Some (g0, Counters.zero) else None)
    in
    match cluster with
    | None -> None
    | Some (cluster_assign, cluster_counters) ->
      (* Gateway part of group g toward group g': the member part closest
         to g'.  Cross-group edges become pulls toward it — the cut-set
         reconciliation that keeps boundary traffic near the links that
         will carry it. *)
      let gateway =
        Array.init g_count (fun g ->
            Array.init g_count (fun g' ->
                if g = g' then parts_arr.(g).(0)
                else begin
                  let best = ref parts_arr.(g).(0) and bestd = ref max_int in
                  Array.iter
                    (fun q ->
                      let d =
                        Array.fold_left
                          (fun acc q' -> Stdlib.min acc ix.dtab.((q * p.k) + q'))
                          max_int parts_arr.(g')
                      in
                      if d < !bestd then begin
                        bestd := d;
                        best := q
                      end)
                    parts_arr.(g);
                  !best
                end))
      in
      let members = Array.make g_count [] in
      for i = n - 1 downto 0 do
        members.(cluster_assign.(i)) <- i :: members.(cluster_assign.(i))
      done;
      let local_part = Array.make p.k (-1) in
      Array.iteri
        (fun _g parts -> Array.iteri (fun li q -> local_part.(q) <- li) parts)
        parts_arr;
      let make_sub g =
        let mem = Array.of_list members.(g) in
        let index_of = Hashtbl.create 16 in
        Array.iteri (fun li tid -> Hashtbl.replace index_of tid li) mem;
        let parts = parts_arr.(g) in
        let sub_edges = ref [] and sub_pulls = ref [] and sub_fixed = ref [] in
        Array.iteri
          (fun li tid ->
            for e = ix.nbr_at.(tid) to ix.nbr_at.(tid + 1) - 1 do
              let other = ix.nbr.(e) and w = ix.nbr_w.(e) in
              match Hashtbl.find_opt index_of other with
              | Some lj -> if li < lj then sub_edges := (li, lj, w) :: !sub_edges
              | None ->
                let g' = cluster_assign.(other) in
                if g' <> g then
                  sub_pulls := (li, local_part.(gateway.(g).(g')), w) :: !sub_pulls
            done;
            for e = ix.pull_at.(tid) to ix.pull_at.(tid + 1) - 1 do
              let part = ix.pull_to.(e) in
              let tgt = if groups.(part) = g then part else gateway.(g).(groups.(part)) in
              sub_pulls := (li, local_part.(tgt), ix.pull_w.(e)) :: !sub_pulls
            done;
            if ix.pin.(tid) >= 0 then sub_fixed := (li, local_part.(ix.pin.(tid))) :: !sub_fixed)
          mem;
        {
          areas = Array.map (fun tid -> p.areas.(tid)) mem;
          edges = !sub_edges;
          pulls = !sub_pulls;
          k = Array.length parts;
          capacities = Array.map (fun q -> p.capacities.(q)) parts;
          dist = (fun a b -> ix.dtab.((parts.(a) * p.k) + parts.(b)));
          fixed = !sub_fixed;
        }
      in
      (* Every non-empty subproblem goes through the fragment cache: an
         unchanged group replays its cached solution, a dirty group
         re-solves in canonical space (content-derived seed, so the
         answer — and hence the fragment — is shareable across attempts,
         tenants and renamings). *)
      let solve_sub sub =
        if num_items sub = 0 then Some (Array.make 0 0, Counters.zero)
        else solve_fragment sub
      in
      let subs = Array.init g_count make_sub in
      let solved = Pool.parallel_map ?pool solve_sub subs in
      if Array.exists Option.is_none solved then None
      else begin
        let assignment = Array.make n (-1) in
        (* the cluster-level problem counts as one subproblem *)
        let counters = ref { cluster_counters with subproblems = 1 } in
        Array.iteri
          (fun g s ->
            let a, cnt = Option.get s in
            let mem = Array.of_list members.(g) in
            Array.iteri (fun li tid -> assignment.(tid) <- parts_arr.(g).(a.(li))) mem;
            counters := Counters.add !counters cnt)
          solved;
        (* Polish across group boundaries only: interior items are
           pinned, so the anneal explores the cut — the only place the
           decomposition can have lost cost — and its budget scales with
           the boundary size, not the whole design.  Only a feasible,
           no-worse answer may replace the stitched one. *)
        let boundary = Array.make n false in
        List.iter
          (fun (a, b, _) ->
            if cluster_assign.(a) <> cluster_assign.(b) then begin
              boundary.(a) <- true;
              boundary.(b) <- true
            end)
          p.edges;
        List.iter
          (fun (i, part, _) ->
            if groups.(part) <> cluster_assign.(i) then boundary.(i) <- true)
          p.pulls;
        let n_boundary = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 boundary in
        let final =
          if n_boundary = 0 then assignment
          else begin
            let pin = Array.copy ix.pin in
            Array.iteri
              (fun i b -> if (not b) && pin.(i) < 0 then pin.(i) <- assignment.(i))
              boundary;
            let iters = Stdlib.min 200_000 (30 * n_boundary) in
            match anneal { ix with pin } ~seed ~iters assignment with
            | Some (a, moves) when cost_of p a <= cost_of p assignment +. 1e-9 ->
              counters := Counters.add !counters (moves_only moves);
              a
            | _ -> assignment
          end
        in
        Some (final, !counters)
      end
  end

let solve_uncached ~strategy ~seed ?warm_incumbent ?pool ?groups p =
  (* An externally supplied incumbent (e.g. the previous attempt's mapping
     re-checked against relaxed capacities) only helps if it is feasible
     for *this* problem; otherwise it is dropped silently. *)
  let warm_incumbent =
    match warm_incumbent with
    | Some a when feasible_assignment p a -> Some (Array.copy a)
    | _ -> None
  in
  let finish backend ?(counters = Counters.zero) ~proven assignment =
    Some
      {
        assignment;
        cost = cost_of p assignment;
        feasible = feasible_assignment p assignment;
        stats = { backend; counters; proven_optimal = proven };
      }
  in
  if p.k = 1 then begin
    let assignment = Array.make (num_items p) 0 in
    if feasible_assignment p assignment then finish `Heuristic ~proven:true assignment else None
  end
  else begin
    let ix = index p in
    let run_exact incumbent = exact ~incumbent p in
    match strategy with
    | Heuristic ->
      let assignment, _, feasible, moves = heuristic ~seed ix in
      if feasible then finish `Heuristic ~counters:(moves_only moves) ~proven:false assignment
      else None
    | Exact -> (
      match run_exact warm_incumbent with
      | Some (assignment, counters, proven) -> finish `Exact ~counters ~proven assignment
      | None -> None)
    | Auto -> (
      (* Grouped decomposition fires only for large clusters with a real
         grouping (several groups, each with several parts): every legacy
         path stays bit-identical. *)
      let grouped =
        match groups with
        | Some g when p.k > 8 && Array.length g = p.k ->
          let gc = 1 + Array.fold_left Stdlib.max 0 g in
          if gc >= 2 && gc < p.k && Array.for_all (fun x -> x >= 0) g then
            solve_grouped ~seed ?pool ~groups:g ix
          else None
        | _ -> None
      in
      match grouped with
      | Some (assignment, counters) -> finish `Heuristic ~counters ~proven:false assignment
      | None ->
      let h, h_cost, h_feasible, h_moves = heuristic ~seed ix in
      let incumbent =
        match warm_incumbent with
        | Some w when h_feasible -> if cost_of p w <= cost_of p h then Some w else Some h
        | Some w -> Some w
        | None -> if h_feasible then Some h else None
      in
      (* A feasible zero-cost assignment is optimal outright. *)
      if h_feasible && h_cost <= 1e-12 then
        finish `Heuristic ~counters:(moves_only h_moves) ~proven:true h
      else
      (* Joint k-way ILPs carry k*(k-1) linearization variables per edge,
         so they earn a much smaller size budget than two-way instances. *)
      let joint_limit = if p.k = 2 then exact_var_limit else exact_var_limit / 2 in
      if binary_var_count p <= joint_limit then begin
        match run_exact incumbent with
        | Some (assignment, counters, true) ->
          finish `Exact ~counters ~proven:true assignment
        | Some (assignment, counters, false) -> (
          (* Search budget exhausted: the recursive-bisection backend often
             beats a stalled joint search on k > 2 instances. *)
          let hier = if p.k > 2 then hierarchical ~seed ix else None in
          match hier with
          | Some (ha, hc)
            when feasible_assignment p ha && cost_of p ha < cost_of p assignment -. 1e-9 ->
            finish `Heuristic ~counters:(Counters.add counters hc) ~proven:false ha
          | _ -> finish `Exact ~counters ~proven:false assignment)
        | None -> None (* exact proof of infeasibility *)
      end
      else begin
        (* Too large for one joint ILP: recursive two-way bisection (exact
           at each level), falling back to the flat heuristic.  Keep the
           better of the two. *)
        let hier = if p.k > 2 then hierarchical ~seed ix else None in
        let flat = if h_feasible then Some (h, h_cost, h_moves) else None in
        match (hier, flat) with
        | Some (a, counters), Some (_, fc, _)
          when feasible_assignment p a && cost_of p a <= fc +. 1e-9 ->
          finish `Heuristic ~counters ~proven:false a
        | Some (a, counters), None when feasible_assignment p a ->
          finish `Heuristic ~counters ~proven:false a
        | _, Some (fa, _, fm) -> finish `Heuristic ~counters:(moves_only fm) ~proven:false fa
        | Some (a, counters), _ when feasible_assignment p a ->
          finish `Heuristic ~counters ~proven:false a
        | _ -> None
      end)
  end

(* ------------------------------------------------------------------ *)
(* Content-addressed solution cache.

   Stencil-style designs ask the floorplanner the same question many
   times: identical task graphs partitioned under identical capacities
   recur across compile attempts, fault-injection retries and the
   intra-FPGA levels of a hierarchical run.  Since [solve_uncached] is a
   pure function of its arguments (the PRNG is seeded, the ILP is
   deterministic), the whole [result option] can be memoized under a
   canonical digest of every input that influences the answer.

   Determinism contract: the cache must never change *what* is returned,
   only how fast.  The result record carries no clock, so cache-cold
   and cache-warm compiles emit bit-identical reports.  Hit/miss
   observability lives in [cache_stats] only. *)

let cache : result option Memo.t = Memo.create ()

(* The part grouping routes the decomposition, so it is part of the
   answer's identity; the worker pool is deliberately NOT hashed — it may
   only change wall-clock, never the result. *)
let cache_key ~strategy ~seed ?warm_incumbent ?groups p =
  let ints = function
    | None -> "n"
    | Some a -> String.concat ";" (List.map string_of_int (Array.length a :: Array.to_list a))
  in
  let strategy = match strategy with Exact -> "E" | Heuristic -> "H" | Auto -> "A" in
  Digest.to_hex
    (Digest.string
       (String.concat "/"
          [ strategy; string_of_int seed; ints warm_incumbent; problem_bytes p; ints groups ]))

let solve ?(strategy = Auto) ?(seed = 1) ?warm_incumbent ?pool ?groups p =
  validate p;
  let key = cache_key ~strategy ~seed ?warm_incumbent ?groups p in
  let r, _hit =
    Memo.find_or_compute cache ~key (fun () ->
        solve_uncached ~strategy ~seed ?warm_incumbent ?pool ?groups p)
  in
  (* Deep-copy the assignment: callers own their result arrays and a
     mutation must not poison later hits. *)
  Option.map (fun r -> { r with assignment = Array.copy r.assignment }) r

let cache_stats () =
  let s = Memo.stats cache in
  (s.Memo.hits, s.Memo.misses)

(* "Cold means cold": clearing the solution cache also clears the
   fragment cache, so benchmarks and tests that reset before a cold
   measurement cannot be silently warmed by second-level fragments. *)
let reset_cache () =
  Memo.reset cache;
  reset_fragments ()

let anneal p ~seed ~iters init =
  validate p;
  if Array.length init <> num_items p || Array.exists (fun q -> q < 0 || q >= p.k) init then
    invalid_arg "Partition.anneal: init must give every item a part";
  anneal (index p) ~seed ~iters init
