(** RoCE v2 wire-format accounting.

    AlveoLink's HiveNet IP implements RoCE v2 over converged Ethernet
    (§4.4); the per-packet efficiency that drives Fig. 8 and the §7
    packet-size discussion comes from the fixed framing around each
    payload.  This module makes the framing explicit. *)

type layer = { name : string; bytes : int }

val layers : layer list
(** Preamble/SFD, Ethernet header, IPv4, UDP, InfiniBand BTH, iCRC,
    Ethernet FCS and the inter-frame gap — in wire order. *)

val header_bytes : int
(** Total framing per packet (sum of {!layers}). *)

val wire_bytes : payload:int -> int
(** Bytes on the wire for one packet carrying [payload] bytes. *)

val efficiency : payload:int -> float
(** payload / wire share in (0, 1). *)

val effective_gbps : ?line_rate_gbps:float -> payload:int -> unit -> float
(** Goodput at the given payload size over a (default 100 Gb/s) link. *)

val packets_for : payload:int -> bytes:float -> float
(** Packet count to move [bytes] at the given MTU payload. *)
