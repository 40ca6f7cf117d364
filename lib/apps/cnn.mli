(** Systolic-array CNN accelerator generated by AutoSA for the third
    convolutional layer of VGG (§5.5).

    A 13 x C grid of identical PEs: activations stream rightward along
    rows, weights downward along columns, results drain through per-column
    drainers into a collector.  Grid sizes 13x4 … 13x20; the 13x12 and
    larger configurations exceed one U55C and only route when TAPA-CS
    splits them column-wise across FPGAs.

    Per-PE resources are calibrated to reproduce Table 8 exactly; the
    boundary traffic reproduces Table 7. *)

type config = {
  cols : int;  (** 4, 8, 12, 16, 20 *)
  fpgas : int;
  batch : int;  (** inputs processed per run *)
}

val rows : int
(** 13 in the paper. *)

val make_config : ?batch:int -> cols:int -> fpgas:int -> unit -> config

val generate : config -> App.t

val cols_tested : int list
val macs_per_input : float
(** 54.5 M floating-point operations (§5.5). *)

val module_count : config -> int
val transfer_volume_bytes : config -> float
(** Table 7: per-input bytes crossing a column cut, times the batch. *)
