(** Imperative 4-ary min-heap: the event queue of the simulation engine
    and the branch-and-bound frontier.

    Stable only up to [cmp]-ties, so callers needing a total order must
    break ties in [cmp], as the engine does with sequence numbers.  The
    wider fan-out halves the tree height: pops sift through half the levels of a binary heap, which is where a
    discrete-event simulator spends its queue time, at the price of up to
    four child comparisons per level — a net win once the queue holds
    more than a handful of events. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
val pop : 'a t -> 'a option
(** Removes and returns the minimum element. *)

val pop_exn : 'a t -> 'a
(** @raise Not_found when empty. *)
