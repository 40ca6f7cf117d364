(** Live transport: newline-delimited JSON over a Unix domain socket.

    A single [select] loop owns every connection; all complete request
    lines collected in one wake-up form one {!Service.schedule} round,
    so concurrent bursts of identical requests coalesce and the
    admission bound applies across connections.  Metrics requests and
    malformed lines are answered inline without scheduling.  A line
    longer than 64 KiB, complete or not, is answered inline with an
    error naming the cap, and its connection is closed. *)

type t

val create : socket_path:string -> Service.t -> t
(** Bind and listen (replacing any stale socket file). *)

val serve : ?max_requests:int -> t -> int
(** Run the accept/schedule loop until [max_requests] responses have
    been written (0, the default, runs forever).  Returns the number of
    responses written. *)

val close : t -> unit
(** Close every connection and remove the socket file. *)

val request_once :
  ?retries:int -> socket_path:string -> string -> (string, string) result
(** One-shot client: connect (retrying [retries] times at 50 ms while
    the server starts, default 50), send one request line, return the
    response line. *)
