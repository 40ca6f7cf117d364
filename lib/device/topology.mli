(** Network topologies for clusters of FPGAs (paper Fig. 6) and the
    hop-count distance metrics of Eq. 3 (daisy chain) and its ring, bus,
    star, mesh and hypercube generalizations. *)

type t =
  | Daisy_chain
  | Ring
  | Bus  (** shared medium: every pair is one hop apart *)
  | Star  (** device 0 is the hub *)
  | Mesh of int  (** [Mesh cols]: devices arranged row-major in a grid *)
  | Hypercube  (** requires a power-of-two device count *)

val dist : t -> total:int -> int -> int -> int
(** [dist topo ~total i j] is the hop count between device [i] and [j]
    among [total] devices.  [dist _ i i = 0].
    @raise Invalid_argument on out-of-range devices or a non-power-of-two
    hypercube. *)

val check_size : t -> int -> (unit, string) result
(** [Error] naming the size when the topology cannot wire that many
    devices: a hypercube needs a power of two.  Check a cluster size
    here before the first {!dist} raises. *)

val neighbors : t -> total:int -> int -> int list
(** Devices exactly one hop away. *)

val diameter : t -> total:int -> int
val name : t -> string
val all_basic : int -> t list
(** The topologies applicable to a cluster of the given size. *)

val pp : Format.formatter -> t -> unit
