(* The annealer as it stood before the flat partition index: a list
   adjacency, overflow recomputed from [Resource.t] sums, the
   temperature and the Metropolis test at every uphill proposal.  Kept
   verbatim as the oracle [Partition.anneal] must match. *)

open Tapa_cs_util
open Tapa_cs_device
module Partition = Tapa_cs_floorplan.Partition

let num_items (p : Partition.problem) = Array.length p.areas

let usage_of (p : Partition.problem) assignment =
  let usage = Array.make p.k Resource.zero in
  Array.iteri (fun i part -> usage.(part) <- Resource.add usage.(part) p.areas.(i)) assignment;
  usage

(* Built once per problem.  Neighbours and pulls are prepended in edge-
   and pull-list order, so every sum over them runs in one fixed order;
   [pin] is each item's fixed part, or -1. *)
type index = {
  p : Partition.problem;
  adj : (int * float) list array;  (* (neighbour, edge weight) *)
  pulls_of : (int * float) list array;  (* (target part, pull weight) *)
  pin : int array;
}

let index (p : Partition.problem) =
  let n = num_items p in
  let adj = Array.make n [] and pulls_of = Array.make n [] and pin = Array.make n (-1) in
  List.iter
    (fun (a, b, w) ->
      adj.(a) <- (b, w) :: adj.(a);
      adj.(b) <- (a, w) :: adj.(b))
    p.edges;
  List.iter (fun (i, part, w) -> pulls_of.(i) <- (part, w) :: pulls_of.(i)) p.pulls;
  List.iter (fun (i, part) -> pin.(i) <- part) p.fixed;
  { p; adj; pulls_of; pin }

(* Normalized overflow of a part: how far past capacity each resource
   goes, as a fraction; drives infeasible starts back to feasibility. *)
let overflow cap (u : Resource.t) =
  let f used total = if used <= total then 0.0 else float_of_int (used - total) /. float_of_int (Stdlib.max 1 total) in
  f u.Resource.lut cap.Resource.lut +. f u.ff cap.ff +. f u.bram cap.bram +. f u.dsp cap.dsp
  +. f u.uram cap.uram

let total_overflow (p : Partition.problem) usage =
  let acc = ref 0.0 in
  Array.iteri (fun part u -> acc := !acc +. overflow p.capacities.(part) u) usage;
  !acc

(* Every local search minimizes the cost plus [penalty] times the total
   overflow, so infeasible starts can be repaired. *)
let penalty = 1e7

(* Change of that working objective when item [i] moves to [dst], in
   O(degree); [usage] must be current for [assignment]. *)
let move_delta ix assignment usage i dst =
  let p = ix.p and src = assignment.(i) in
  let d = ref 0.0 in
  List.iter
    (fun (j, w) ->
      if j <> i then
        d := !d +. (w *. float_of_int (p.dist dst assignment.(j) - p.dist src assignment.(j))))
    ix.adj.(i);
  List.iter
    (fun (tp, w) -> d := !d +. (w *. float_of_int (p.dist dst tp - p.dist src tp)))
    ix.pulls_of.(i);
  let a = p.areas.(i) and cap = p.capacities in
  let over_src = overflow cap.(src) usage.(src) in
  let over_src' = overflow cap.(src) (Resource.sub usage.(src) a) in
  let over_dst = overflow cap.(dst) usage.(dst) in
  let over_dst' = overflow cap.(dst) (Resource.add usage.(dst) a) in
  !d +. (penalty *. (over_src' -. over_src +. over_dst' -. over_dst))

let move ix assignment usage i dst =
  let src = assignment.(i) and a = ix.p.areas.(i) in
  usage.(src) <- Resource.sub usage.(src) a;
  usage.(dst) <- Resource.add usage.(dst) a;
  assignment.(i) <- dst

(* Deterministic simulated annealing from [init] (pinned items never
   move): single-item relocations drawn from a Prng seeded with [seed],
   geometric cooling over [iters] proposals, Metropolis acceptance.  The
   answer is a pure function of the inputs, which keeps the portfolio's
   arbitration deterministic.  Returns the cheapest feasible
   assignment observed with the number of accepted moves, or [None] when
   the walk never reached feasibility. *)
let anneal ix ~seed ~iters init =
  let p = ix.p in
  let cost_of = Partition.cost_of and feasible_assignment = Partition.feasible_assignment in
  let n = num_items p in
  let assignment = Array.copy init in
  let usage = usage_of p assignment in
  let moves = ref 0 in
  let best = ref None in
  let consider_best () =
    if total_overflow p usage = 0.0 then begin
      let c = cost_of p assignment in
      match !best with
      | Some (bc, _) when bc <= c -> ()
      | _ -> best := Some (c, Array.copy assignment)
    end
  in
  consider_best ();
  if n > 0 && p.k > 1 && iters > 0 then begin
    let rng = Prng.create seed in
    (* Temperature: start proportional to the objective scale, cool
       geometrically to ~1/1000th over the iteration budget. *)
    let obj0 = cost_of p assignment +. (penalty *. total_overflow p usage) in
    let t0 = Stdlib.max 1.0 (0.10 *. Float.abs obj0) in
    let ratio = 1e-3 in
    let movable_ids = Array.of_list (List.filter (fun i -> ix.pin.(i) < 0) (List.init n Fun.id)) in
    let m = Array.length movable_ids in
    if m > 0 then
      for it = 0 to iters - 1 do
        let temp = t0 *. (ratio ** (float_of_int it /. float_of_int iters)) in
        let i = movable_ids.(Prng.int rng m) in
        let dst = Prng.int rng p.k in
        if dst <> assignment.(i) then begin
          let delta = move_delta ix assignment usage i dst in
          if delta < 0.0 || Prng.float rng 1.0 < Float.exp (-.delta /. temp) then begin
            move ix assignment usage i dst;
            incr moves;
            if delta < 0.0 then consider_best ()
          end
        end
      done;
    consider_best ()
  end;
  match !best with
  | Some (_, a) when feasible_assignment p a -> Some (a, !moves)
  | _ -> None

let anneal p ~seed ~iters init = anneal (index p) ~seed ~iters init
