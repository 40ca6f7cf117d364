(** The floorplanner's annealer before its flat index: a test-side
    oracle for {!Tapa_cs_floorplan.Partition.anneal}. *)

val anneal :
  Tapa_cs_floorplan.Partition.problem -> seed:int -> iters:int -> int array -> (int array * int) option
(** Same contract as {!Tapa_cs_floorplan.Partition.anneal}: the cheapest
    feasible assignment the walk saw and its accepted moves, or [None]. *)
