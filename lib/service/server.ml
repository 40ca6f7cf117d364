(* Live transport: newline-delimited JSON over a Unix domain socket.

   One [select] loop owns every connection; each wake-up drains all the
   readable clients, and every complete request line collected in that
   sweep becomes ONE scheduling round ([Service.schedule]).  That is
   where batching comes from in live mode: concurrent clients that race
   a burst of identical requests land in the same round and coalesce to
   a single computation, and the admission bound applies to the whole
   burst, not per connection.  Metrics requests and malformed lines are
   answered inline without touching the scheduler, and so is a line
   longer than [max_line_bytes], after which its connection is closed. *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes received, not yet terminated by '\n' *)
  mutable closed : bool;
}

(* A request line is a few hundred bytes; a connection whose line grows
   past this, complete or not, is answered with an error and closed, so
   one client cannot grow the server's buffer without bound. *)
let max_line_bytes = 65_536

let line_too_long =
  Printf.sprintf "request line longer than %d bytes; closing the connection" max_line_bytes

type t = {
  service : Service.t;
  listen_fd : Unix.file_descr;
  socket_path : string;
  mutable conns : conn list;
  mutable served : int;  (* completed + rejected + metrics + errors *)
}

let create ~socket_path service =
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec fd;
  Unix.bind fd (Unix.ADDR_UNIX socket_path);
  Unix.listen fd 64;
  { service; listen_fd = fd; socket_path; conns = []; served = 0 }

let close t =
  List.iter (fun c -> if not c.closed then try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  try Unix.unlink t.socket_path with Unix.Unix_error _ -> ()

let write_line fd line =
  let payload = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length payload in
  let off = ref 0 in
  try
    while !off < len do
      off := !off + Unix.write fd payload !off (len - !off)
    done;
    true
  with Unix.Unix_error _ -> false

let close_conn c =
  c.closed <- true;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let read_chunk = Bytes.create 65536

(* Split the [n] bytes just read into complete lines, keeping the
   partial tail in [c.buf]; only the new bytes are scanned.  [None]
   stands for a line past [max_line_bytes] and ends the list. *)
let take_lines c n =
  let rec newline i = if i >= n || Bytes.get read_chunk i = '\n' then i else newline (i + 1) in
  let rec go start acc =
    let stop = newline start in
    if Buffer.length c.buf + (stop - start) > max_line_bytes then List.rev (None :: acc)
    else begin
      Buffer.add_subbytes c.buf read_chunk start (stop - start);
      if stop = n then List.rev acc
      else begin
        let line = Buffer.contents c.buf in
        Buffer.clear c.buf;
        go (stop + 1) (Some line :: acc)
      end
    end
  in
  go 0 []

let drain c =
  match Unix.read c.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 ->
    close_conn c;
    []
  | n -> List.map (fun line -> (c, line)) (take_lines c n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> []
  | exception Unix.Unix_error _ ->
    close_conn c;
    []

(* Serve until [max_requests] requests have been answered (0 = forever).
   Returns the number served. *)
let serve ?(max_requests = 0) t =
  let stop = ref false in
  while not !stop do
    let fds = t.listen_fd :: List.map (fun c -> c.fd) t.conns in
    let readable, _, _ =
      try Unix.select fds [] [] 1.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem t.listen_fd readable then begin
      match Unix.accept t.listen_fd with
      | fd, _ ->
        Unix.set_close_on_exec fd;
        t.conns <- { fd; buf = Buffer.create 256; closed = false } :: t.conns
      | exception Unix.Unix_error _ -> ()
    end;
    (* Drain every readable client; the lines collected in this sweep
       are one scheduling round.  Socket reads, request parsing and
       response writes are the transport stage — accounted separately
       from the scheduler so the metrics can say where a stream's time
       actually goes (select idle time is deliberately not counted). *)
    let transport0 = Unix.gettimeofday () in
    let pending =
      List.concat_map
        (fun c -> if c.closed || not (List.memq c.fd readable) then [] else drain c)
        t.conns
    in
    (* Answer metrics, malformed and overlong lines inline; batch the
       rest.  An overlong line's connection closes once this round's
       replies are written. *)
    let batch = ref [] and overlong = ref [] in
    let reply c line =
      ignore (write_line c.fd line);
      t.served <- t.served + 1
    in
    List.iter
      (fun (c, line) ->
        match line with
        | None ->
          reply c (Service.error_json ~id:0 line_too_long);
          overlong := c :: !overlong
        | Some line when String.trim line = "" -> ()
        | Some line -> (
          match Request.of_line line with
          | Error reason -> reply c (Service.error_json ~id:0 reason)
          | Ok r when r.Request.kind = Request.Metrics -> reply c (Service.metrics_json t.service)
          | Ok r -> batch := (c, r) :: !batch))
      pending;
    let batch = Array.of_list (List.rev !batch) in
    Service.note_transport t.service (Unix.gettimeofday () -. transport0);
    if Array.length batch > 0 then begin
      let t0 = Unix.gettimeofday () in
      let verdicts = Service.schedule t.service (Array.map snd batch) in
      let dt = Unix.gettimeofday () -. t0 in
      let write0 = Unix.gettimeofday () in
      Array.iteri
        (fun i v ->
          let c, r = batch.(i) in
          Service.note_latency t.service dt;
          ignore (write_line c.fd (Service.response_json ~id:r.Request.id v));
          t.served <- t.served + 1)
        verdicts;
      Service.note_transport t.service (Unix.gettimeofday () -. write0)
    end;
    List.iter close_conn !overlong;
    t.conns <- List.filter (fun c -> not c.closed) t.conns;
    if max_requests > 0 && t.served >= max_requests then stop := true
  done;
  t.served

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)
(* ------------------------------------------------------------------ *)

let connect ?(retries = 50) socket_path =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> Ok fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when n > 0 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.05;
      go (n - 1)
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)
  in
  go retries

let read_line_fd fd =
  let b = Buffer.create 256 in
  let one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> if Buffer.length b = 0 then None else Some (Buffer.contents b)
    | _ ->
      if Bytes.get one 0 = '\n' then Some (Buffer.contents b)
      else begin
        Buffer.add_char b (Bytes.get one 0);
        go ()
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* One-shot client: connect (with retries while the server starts up),
   send one request line, return the one response line. *)
let request_once ?retries ~socket_path line =
  match connect ?retries socket_path with
  | Error e -> Error (Printf.sprintf "connect %s: %s" socket_path e)
  | Ok fd ->
    let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
    Fun.protect ~finally (fun () ->
        if not (write_line fd line) then Error "write failed"
        else
          match read_line_fd fd with
          | Some resp -> Ok resp
          | None -> Error "server closed the connection without responding")
