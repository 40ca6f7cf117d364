(** The one app dispatch: a benchmark named by its parameters, built
    after checking them.  The CLI and the compile service both build
    their designs here, so a parameter one of them accepts is checked
    the same way by the other. *)

type spec = {
  app : string;  (** one of {!apps} *)
  fpgas : int;  (** cluster size the instance is scaled for *)
  iters : int;  (** stencil iterations *)
  dataset : string;  (** pagerank dataset, a {!Dataset.all} name *)
  n : int;  (** knn dataset size *)
  d : int;  (** knn feature dimension *)
  cols : int;  (** cnn grid columns *)
}

val apps : string list
(** stencil, pagerank, knn, cnn. *)

val build : spec -> (App.t, string) result
(** Generate the named app.  [Error] names an unknown app or dataset, or
    the first count the app uses ([fpgas], then [iters], [n], [d] or
    [cols]) that is not positive; no generator is called on such a spec,
    so none of them raises. *)
