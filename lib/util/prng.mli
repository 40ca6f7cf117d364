(** Deterministic splitmix64 pseudo-random number generator.

    Every stochastic component (heuristic partitioner, synthetic datasets,
    workload generators) draws from an explicit [Prng.t] so experiments are
    reproducible bit-for-bit across runs. *)

type t

val create : int -> t
(** [create seed] makes an independent generator. *)

val next_int64 : t -> int64

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).
    @raise Invalid_argument when [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from [lo, hi] inclusive. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val split : t -> t
(** Derive an independent child generator; advances the parent. *)
