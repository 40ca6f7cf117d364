(** The original seed LP solver, kept test-side as the oracle that the
    differential properties of [test_ilp] and the [certcheck] gate
    compare {!Tapa_cs_ilp.Simplex} against.  It shares nothing with the
    production simplex except the result type: a two-phase dense
    tableau, rebuilt from the {!Tapa_cs_ilp.Model} on every call, with
    every variable upper bound materialized as an explicit
    [y_j <= u_j] row. *)

open Tapa_cs_util
open Tapa_cs_ilp

val solve :
  ?bounds:Rat.t array * Rat.t option array -> ?max_pivots:int -> Model.t -> Simplex.result
(** Solves the continuous relaxation of the model, with the per-variable
    lower/upper bounds overridden by [bounds] when given.  Returns the
    same constructor and, when optimal, the same objective as
    {!Tapa_cs_ilp.Simplex.solve_prepared}; on an LP with several optimal
    vertices the values may differ.
    @raise Tapa_cs_ilp.Simplex.Pivot_limit when [max_pivots] (default
    2_000_000) is exhausted. *)
