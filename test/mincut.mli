(** Global minimum cut of a weighted undirected graph (Stoer–Wagner).

    A test-only oracle, linked into the test executables and nowhere
    else: any bipartition of a connected design
    costs at least the global min cut, so the exact ILP partitioner's
    two-way results can be cross-checked against this bound (and must
    meet it exactly whenever the min-cut sides respect the capacity
    constraints).  O(V^3), fine for design-sized graphs. *)

type t
(** A weighted undirected multigraph under construction. *)

val create : int -> t
(** [create n] with vertices [0 .. n-1].
    @raise Invalid_argument when [n <= 0]. *)

val add_edge : t -> int -> int -> float -> unit
(** Accumulates weight on the (undirected) pair; self-loops are ignored,
    negative weights rejected. *)

val min_cut : t -> float * bool array
(** [(weight, side)] of a globally minimum cut; [side.(v)] tells which
    shore vertex [v] lands on.  A disconnected graph returns weight [0].
    @raise Invalid_argument on a single-vertex graph. *)

val cut_weight : t -> bool array -> float
(** Total weight crossing an arbitrary bipartition (for checking). *)
