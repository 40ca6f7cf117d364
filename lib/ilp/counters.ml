type t = {
  lp_solves : int;
  lp_pivots : int;
  lp_certified : int;
  lp_fallbacks : int;
  bb_nodes : int;
  refinement_moves : int;
  subproblems : int;
  races_exact : int;
  races_anneal : int;
  incumbent_broadcasts : int;
}

let zero =
  {
    lp_solves = 0;
    lp_pivots = 0;
    lp_certified = 0;
    lp_fallbacks = 0;
    bb_nodes = 0;
    refinement_moves = 0;
    subproblems = 0;
    races_exact = 0;
    races_anneal = 0;
    incumbent_broadcasts = 0;
  }

let add a b =
  {
    lp_solves = a.lp_solves + b.lp_solves;
    lp_pivots = a.lp_pivots + b.lp_pivots;
    lp_certified = a.lp_certified + b.lp_certified;
    lp_fallbacks = a.lp_fallbacks + b.lp_fallbacks;
    bb_nodes = a.bb_nodes + b.bb_nodes;
    refinement_moves = a.refinement_moves + b.refinement_moves;
    subproblems = a.subproblems + b.subproblems;
    races_exact = a.races_exact + b.races_exact;
    races_anneal = a.races_anneal + b.races_anneal;
    incumbent_broadcasts = a.incumbent_broadcasts + b.incumbent_broadcasts;
  }

type field = { key : string; label : string; get : t -> int }

let fields =
  [
    { key = "lp_solves"; label = "LP relaxations solved"; get = (fun c -> c.lp_solves) };
    { key = "lp_pivots"; label = "simplex pivots"; get = (fun c -> c.lp_pivots) };
    { key = "lp_certified"; label = "float-certified solves"; get = (fun c -> c.lp_certified) };
    { key = "lp_fallbacks"; label = "exact fallbacks"; get = (fun c -> c.lp_fallbacks) };
    { key = "bb_nodes"; label = "branch-and-bound nodes"; get = (fun c -> c.bb_nodes) };
    { key = "refinement_moves"; label = "refinement moves"; get = (fun c -> c.refinement_moves) };
    { key = "subproblems"; label = "hierarchical subproblems"; get = (fun c -> c.subproblems) };
    { key = "races_exact"; label = "portfolio races won: exact"; get = (fun c -> c.races_exact) };
    {
      key = "races_anneal";
      label = "portfolio races won: anneal";
      get = (fun c -> c.races_anneal);
    };
    {
      key = "incumbent_broadcasts";
      label = "incumbent broadcasts";
      get = (fun c -> c.incumbent_broadcasts);
    };
  ]
