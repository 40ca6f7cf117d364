(** FPGA resource vectors: LUT, FF, BRAM (18Kb blocks), DSP and URAM.

    Every floorplanning decision in TAPA-CS reduces to vector arithmetic
    over these five quantities (paper Table 2 / Eq. 1). *)

type t = { lut : int; ff : int; bram : int; dsp : int; uram : int }

val zero : t
val make : ?lut:int -> ?ff:int -> ?bram:int -> ?dsp:int -> ?uram:int -> unit -> t

val add : t -> t -> t
val sub : t -> t -> t
val sum : t list -> t
val scale : float -> t -> t
(** Component-wise scaling with rounding up — used for utilization
    thresholds and per-slot subdivision. *)

val scale_int : int -> t -> t

val fits : t -> within:t -> bool
(** Component-wise [<=]. *)

val exceeds : t -> limit:t -> bool

val utilization : t -> total:t -> float
(** Largest component-wise used/total ratio (0 when total is zero). *)

val utilization_by : t -> total:t -> (string * float) list
(** Per-component utilization, labelled ["LUT"], ["FF"], … *)

val max_component_name : t -> total:t -> string
(** Name of the binding (most utilized) resource. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
