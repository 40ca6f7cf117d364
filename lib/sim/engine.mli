(** Discrete-event simulation engine.

    Processes are ordinary OCaml functions running on top of effect
    handlers (OCaml 5): inside a process, {!wait}, {!Channel.push},
    {!Channel.pull} and {!Server.transfer} suspend the fiber and the
    engine resumes it when simulated time or resources allow.  Every
    resume re-enters through the event queue, and determinism comes from
    a (time, sequence-number) total order on events.

    The event queue is two-tier: a {!Tapa_cs_util.Fourheap} for timed
    events and an O(1) FIFO ring for zero-delay ones (wakes, spawns),
    merged under the same (time, seq) total order — the execution
    schedule is bit-identical to a single binary heap, only cheaper. *)

type t

val create : unit -> t

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Register a process; it starts at the current simulated time when
    {!run} (or the ongoing run) reaches it. *)

type run_result = {
  end_time : float;
  events : int;
  deadlocked : string list;  (** names of processes still blocked at the end *)
}

val run : ?until:float -> t -> run_result
(** Executes events until the queue drains or [until] is passed.  A
    non-empty [deadlocked] list means some channel dependency cycle never
    resolved — surfaced, never silently dropped.

    [until] semantics: events with time [<= until] still run; the first
    event strictly beyond [until] stays queued.  [end_time] is the time
    of the {e last executed event}, NOT [until] — when the queue runs dry
    early (or nothing was due at all) it lands short of [until], and it
    never overshoots.  Callers wanting a clock pinned to the horizon
    should take [Float.max until end_time] themselves; clamping here
    would silently stretch the makespan of designs that finish early. *)

(** {1 Operations usable inside a process} *)

val wait : float -> unit
(** Advance this process by a simulated duration (seconds, >= 0). *)

val time : unit -> float
(** Current simulated time as seen by this process. *)

(** Bounded byte-counting FIFO channels. *)
module Channel : sig
  type t

  val create : capacity:float -> t
  (** [capacity] in bytes; must be positive. *)

  val push : t -> float -> unit
  (** Blocks while the channel lacks space.  Amounts larger than the
      capacity are streamed through in capacity-sized pieces. *)

  val pull : t -> float -> unit
  (** Blocks until the requested bytes are available. *)

  val level : t -> float
  val total_pushed : t -> float
  val total_pulled : t -> float
end

(** A serially shared resource with rate, per-packet overhead and
    propagation latency — the model of one AlveoLink port or a host NIC. *)
module Server : sig
  type engine := t

  type params = {
    rate_bytes_per_s : float;  (** must be positive *)
    latency_s : float;  (** one-way propagation, paid by every transfer *)
    per_packet_s : float;  (** overhead per packet started *)
    packet_bytes : float;
  }

  val service_time : params -> float -> float
  (** Seconds a transfer of this many bytes holds the server: the bytes
      over the rate plus the per-packet overhead of every packet started.
      The static performance bounds price link traffic with it too. *)

  type t

  val create : engine -> params -> t

  val transfer : t -> float -> unit
  (** Queue behind earlier transfers, hold the server for the
      {!service_time}, then wait the propagation latency. *)

  val busy_time : t -> float
  val bytes_moved : t -> float
end
