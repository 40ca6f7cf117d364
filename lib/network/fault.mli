(** Deterministic link-fault model and RoCE-v2-style recovery.

    Real QSFP28/RoCE-v2 deployments (§4.4) survive dropped packets and
    downed ports: the NIC's go-back-N retransmission resends the lost
    packet plus everything already in flight behind it, pacing retries
    with an exponentially backed-off timeout.  This module models that
    recovery twice over:

    - {!transfer_time_s} gives the {e expected} completion time in closed
      form, so the degradation is analyzable and unit-testable — at loss
      rate 0 (and no jitter / down windows) it equals
      {!Link.transfer_time_s} exactly, and it is never smaller;
    - {!sample_transfer_time_s} draws one concrete outcome from a
      {!Tapa_cs_util.Prng.t}, matching the repo's bit-reproducibility
      contract: same seed, same sampled timeline.

    {!plan} is the compile/sim-level fault description the compiler and
    the simulator thread through their pipelines. *)

type link_fault = {
  loss_rate : float;  (** per-packet loss probability, [0, 1) *)
  down : (float * float) list;
      (** absolute [(start, stop))] outage windows in seconds, disjoint
          and sorted by start; the link makes no progress inside one *)
  jitter_s : float;  (** per-packet jitter, uniform over [0, jitter_s] *)
}

val ideal : link_fault
(** No loss, no outages, no jitter. *)

val lossy : float -> link_fault
(** [lossy p] is {!ideal} with [loss_rate = p]. *)

val link_fault :
  ?loss_rate:float -> ?down:(float * float) list -> ?jitter_s:float -> unit -> link_fault
(** The validating constructor every fault description should go through
    (and {!ideal} / {!lossy} do): [down] windows are sorted by start and
    overlapping or touching windows are merged, so the result always
    satisfies the "disjoint and sorted" invariant the record type
    documents.  Zero-length windows are dropped.
    @raise Invalid_argument on a loss rate outside [0, 1), a negative
    jitter, a negative window start, or a window whose stop precedes its
    start. *)

type retrans = {
  window : int;  (** go-back-N window: packets in flight per loss event *)
  timeout_s : float;  (** initial retransmission timeout *)
  backoff : float;  (** >= 1: timeout multiplier per consecutive loss *)
  max_retries : int;  (** consecutive losses before the link gives up *)
}

val roce_v2 : retrans
(** Defaults shaped after RoCE-v2 NIC behaviour over one QSFP28 port:
    16-packet window, 20 us initial timeout, doubling per retry, 8
    retries. *)

exception
  Link_lost of {
    link : string;
    retries : int;  (** consecutive losses when the link gave up *)
  }

val expected_transmissions : loss_rate:float -> retrans -> float
(** Expected wire transmissions per delivered packet under go-back-N:
    [(1 - p + N*p) / (1 - p)].  Every loss retransmits the lost packet
    plus the [N - 1] packets behind it in the window; 1 at [p = 0]. *)

val expected_timeout_s : loss_rate:float -> retrans -> float
(** Expected timeout stall per delivered packet with exponential backoff:
    [timeout * p * sum_{j=0}^{max_retries-1} (p*backoff)^j] — the partial
    geometric sum, so it stays finite even when [p * backoff >= 1].
    0 at [p = 0]. *)

val slowdown : ?packet_bytes:int -> ?retrans:retrans -> loss_rate:float -> Link.t -> float
(** Expected per-packet service-time inflation factor (>= 1) of a lossy
    link versus the ideal one — the factor the simulator derates link
    servers by. *)

val transfer_time_s :
  ?packet_bytes:int -> ?retrans:retrans -> ?at:float -> fault:link_fault -> Link.t -> float -> float
(** Expected one-message transfer time under the fault model, for a
    transfer starting at absolute time [at] (default 0): the ideal
    {!Link.transfer_time_s} plus expected retransmission wire time,
    expected timeout stalls, mean jitter, and the full length of every
    down window the busy interval overlaps.

    Equals {!Link.transfer_time_s} when [fault = ideal]; never below it.
    @raise Invalid_argument if [loss_rate] is outside [0, 1) or
    [jitter_s] is negative. *)

val sample_transfer_time_s :
  ?packet_bytes:int ->
  ?retrans:retrans ->
  ?at:float ->
  fault:link_fault ->
  prng:Tapa_cs_util.Prng.t ->
  Link.t ->
  float ->
  float
(** One sampled transfer: per-packet Bernoulli losses, per-packet jitter
    draws, go-back-N retransmission with backed-off timeouts, down-window
    stalls.  Deterministic given the {!Tapa_cs_util.Prng.t} state.
    @raise Link_lost when one packet fails [max_retries + 1] times in a
    row. *)

(** {1 Compile/sim-level fault plans} *)

type plan = {
  seed : int;  (** root seed for every stochastic draw under this plan *)
  loss_rate : float;  (** applied to every inter-FPGA link *)
  failed_devices : int list;  (** FPGAs dead before the compile starts *)
  failed_links : (int * int) list;
      (** undirected topology edges (by device index) that are down *)
  device_halts : (int * float) list;  (** (fpga, time_s): dies mid-run *)
  fifo_stalls : (int * float * float) list;
      (** (fifo id, start_s, duration_s): the FIFO stops moving data *)
}

val no_faults : plan

val make :
  ?seed:int ->
  ?loss_rate:float ->
  ?failed_devices:int list ->
  ?failed_links:(int * int) list ->
  ?device_halts:(int * float) list ->
  ?fifo_stalls:(int * float * float) list ->
  unit ->
  plan
(** @raise Invalid_argument on a loss rate outside [0, 1), a negative
    halt/stall time, or a negative stall duration. *)

val is_trivial : plan -> bool
(** [true] when the plan injects nothing (loss 0, no failures/halts/stalls);
    such a plan leaves every pipeline bit-identical to no plan at all. *)

val describe : plan -> string list
(** Human-readable summary of the injected faults, one entry each — the
    [Degraded] reasons the simulator and compiler report. *)

val pp : Format.formatter -> plan -> unit

val parse_link_spec : string -> (int * int, string) Stdlib.result
(** Parse an undirected link as ["A:B"] (two distinct non-negative device
    indices, normalized to [(min, max)]) — the CLI [--fail-link] format.
    [Error] carries the reason for a TCS308 diagnostic; this function
    never raises. *)

(** {1 Fleet fault/recovery timelines}

    {!plan} describes faults fixed before a compile starts.  A farm of
    FPGAs additionally churns {e over time}: devices and links fail and
    recover mid-operation, and the interconnect suffers loss-rate
    episodes.  A {!timeline} is that event sequence — the input of the
    farm controller ({!Tapa_cs_farm.Farm}). *)

type fleet_event =
  | Device_down of int
  | Device_up of int
  | Link_down of (int * int)  (** undirected topology edge, normalized [(min, max)] *)
  | Link_up of (int * int)
  | Loss_rate of float
      (** ambient per-packet loss on every inter-FPGA link from this
          instant on; [0] ends the episode *)

val event_devices : fleet_event -> int list
(** The device indices an event names: a device, a link's two
    endpoints, none for a loss episode. *)

val check_devices : size:int -> int list -> (unit, string) Stdlib.result
(** [Ok ()] when every index lies in a [size]-device cluster, [0 .. size
    - 1]; else [Error] with the TCS308 reason ("device index outside the
    N-device cluster (0..N-1)").  The one range check behind the
    [--fail-fpga]/[--fail-link] flags and the farm's timeline events. *)

type timeline_entry = { at_s : float; event : fleet_event }

type timeline = timeline_entry list
(** Sorted by time (stable for simultaneous events); only the smart
    constructor {!timeline} builds values of this type. *)

val timeline : (float * fleet_event) list -> timeline
(** Smart constructor: normalizes link pairs to [(min, max)], sorts by
    timestamp (stable, so simultaneous events keep their given order).
    @raise Invalid_argument on a negative timestamp, a negative device
    index, a self-link, or a loss rate outside [0, 1). *)

val timeline_events : timeline -> (float * fleet_event) list

val device_down_windows : timeline -> horizon_s:float -> int -> (float * float) list
(** The absolute [(start, stop))] outage windows of one device implied by
    its [Device_down]/[Device_up] events, clamped to [[0, horizon_s]] and
    normalized through {!link_fault} (sorted, disjoint, merged). *)

val link_down_windows : timeline -> horizon_s:float -> int * int -> (float * float) list
(** Same for one undirected link: its own [Link_down]/[Link_up] windows
    merged with the outage windows of both endpoint devices (a link makes
    no progress while either endpoint is dead). *)

val loss_episodes : timeline -> horizon_s:float -> (float * float * float) list
(** [(start, stop, rate)] episodes of ambient link loss, in time order;
    an episode ends at the next [Loss_rate] event or the horizon. *)

val parse_timeline_entry : string -> (float * fleet_event, string) Stdlib.result
(** One timeline line: [<t> device-down <i>], [<t> device-up <i>],
    [<t> link-down <A:B>], [<t> link-up <A:B>] or [<t> loss <rate>].
    Blank lines and [#] comments are rejected here — callers filter them.
    [Error] carries the reason for a TCS308 diagnostic; never raises. *)

val describe_event : fleet_event -> string
val pp_timeline : Format.formatter -> timeline -> unit
