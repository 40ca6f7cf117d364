open Tapa_cs_util

type event = { etime : float; seq : int; fn : unit -> unit }

(* Growable FIFO ring for the zero-delay events (process wake-ups and
   spawns).  They are always scheduled at the current simulated time with
   a fresh (strictly larger) sequence number, so arrival order here IS
   (etime, seq) order — an O(1) append/pop replaces a heap round-trip for
   roughly half of a dataflow simulation's events. *)
module Ring = struct
  type t = { mutable data : event array; mutable head : int; mutable len : int }

  let dummy = { etime = 0.0; seq = 0; fn = ignore }
  let create () = { data = Array.make 64 dummy; head = 0; len = 0 }

  let push r ev =
    let cap = Array.length r.data in
    if r.len = cap then begin
      let nd = Array.make (2 * cap) dummy in
      for i = 0 to r.len - 1 do
        nd.(i) <- r.data.((r.head + i) mod cap)
      done;
      r.data <- nd;
      r.head <- 0
    end;
    r.data.((r.head + r.len) mod Array.length r.data) <- ev;
    r.len <- r.len + 1

  let peek r = if r.len = 0 then None else Some r.data.(r.head)

  let pop_exn r =
    if r.len = 0 then raise Not_found;
    let ev = r.data.(r.head) in
    r.data.(r.head) <- dummy;
    r.head <- (r.head + 1) mod Array.length r.data;
    r.len <- r.len - 1;
    ev
end

type t = {
  mutable enow : float;
  queue : event Fourheap.t;
  immediate : Ring.t;
  mutable seq : int;
  mutable events : int;
  mutable current : string;
  suspended : (int, string) Hashtbl.t;
  mutable suspend_id : int;
}

let event_cmp a b =
  let c = Float.compare a.etime b.etime in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  {
    enow = 0.0;
    queue = Fourheap.create ~cmp:event_cmp;
    immediate = Ring.create ();
    seq = 0;
    events = 0;
    current = "<main>";
    suspended = Hashtbl.create 16;
    suspend_id = 0;
  }

let schedule t dt fn =
  t.seq <- t.seq + 1;
  let etime = t.enow +. dt in
  let ev = { etime; seq = t.seq; fn } in
  (* Events landing exactly at the current time keep FIFO order in the
     ring; anything in the future takes the heap.  [etime = enow] covers
     both literal zero delays and delays that round away. *)
  if etime = t.enow then Ring.push t.immediate ev else Fourheap.push t.queue ev

(* Effects performed by process code.  [Suspend register] hands a
   channel a wake thunk; the handler wraps the continuation so the wake
   re-enters through the event queue (keeping determinism). *)
type _ Effect.t +=
  | Wait : float -> unit Effect.t
  | Time : float Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let wait dt =
  if dt < 0.0 then invalid_arg "Engine.wait: negative duration";
  Effect.perform (Wait dt)

let time () = Effect.perform Time

let spawn t ?(name = "process") body =
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait dt ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let resume_name = t.current in
                schedule t dt (fun () ->
                    t.current <- resume_name;
                    Effect.Deep.continue k ()))
          | Time -> Some (fun (k : (a, unit) Effect.Deep.continuation) -> Effect.Deep.continue k t.enow)
          | Suspend register ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let resume_name = t.current in
                t.suspend_id <- t.suspend_id + 1;
                let sid = t.suspend_id in
                Hashtbl.replace t.suspended sid resume_name;
                register (fun () ->
                    schedule t 0.0 (fun () ->
                        Hashtbl.remove t.suspended sid;
                        t.current <- resume_name;
                        Effect.Deep.continue k ())))
          | _ -> None);
    }
  in
  schedule t 0.0 (fun () ->
      t.current <- name;
      Effect.Deep.match_with body () handler)

type run_result = { end_time : float; events : int; deadlocked : string list }

let next_event t =
  (* Merge the ring and the heap under the (etime, seq) total order: the
     ring is FIFO in that order by construction, so comparing fronts is
     enough to replay exactly the single-heap schedule. *)
  match (Ring.peek t.immediate, Fourheap.peek t.queue) with
  | None, None -> None
  | Some i, None -> Some i
  | None, Some h -> Some h
  | Some i, Some h -> if event_cmp i h <= 0 then Some i else Some h

let pop_event t =
  match (Ring.peek t.immediate, Fourheap.peek t.queue) with
  | Some i, Some h -> if event_cmp i h <= 0 then Ring.pop_exn t.immediate else Fourheap.pop_exn t.queue
  | Some _, None -> Ring.pop_exn t.immediate
  | None, _ -> Fourheap.pop_exn t.queue

let run ?until t =
  let continue_run () =
    match next_event t with
    | None -> false
    | Some ev -> ( match until with None -> true | Some u -> ev.etime <= u)
  in
  while continue_run () do
    let ev = pop_event t in
    t.enow <- Float.max t.enow ev.etime;
    t.events <- t.events + 1;
    ev.fn ()
  done;
  let deadlocked = Hashtbl.fold (fun _ name acc -> name :: acc) t.suspended [] in
  { end_time = t.enow; events = t.events; deadlocked = List.sort_uniq String.compare deadlocked }

module Channel = struct
  type t = {
    capacity : float;
    mutable clevel : float;
    mutable pushers : (unit -> unit) list;
    mutable pullers : (unit -> unit) list;
    mutable pushed : float;
    mutable pulled : float;
  }

  let create ~capacity =
    if capacity <= 0.0 then invalid_arg "Channel.create: capacity must be positive";
    { capacity; clevel = 0.0; pushers = []; pullers = []; pushed = 0.0; pulled = 0.0 }

  let wake_pullers ch =
    match ch.pullers with
    | [] -> ()
    | ws ->
      ch.pullers <- [];
      List.iter (fun w -> w ()) (List.rev ws)

  let wake_pushers ch =
    match ch.pushers with
    | [] -> ()
    | ws ->
      ch.pushers <- [];
      List.iter (fun w -> w ()) (List.rev ws)

  (* Tolerances are relative to the magnitudes involved: channels move
     hundreds of megabytes in repeated chunks, so absolute epsilons would
     let rounding residue wedge a full pipeline. *)
  let eps = 1e-12
  let slack ch amount = (1e-9 *. (ch.capacity +. Float.abs amount)) +. 1e-9

  let rec push_piece ch amount =
    if amount > eps then begin
      if ch.clevel +. amount <= ch.capacity +. slack ch amount then begin
        ch.clevel <- ch.clevel +. amount;
        ch.pushed <- ch.pushed +. amount;
        wake_pullers ch
      end
      else begin
        Effect.perform (Suspend (fun resume -> ch.pushers <- resume :: ch.pushers));
        push_piece ch amount
      end
    end

  let push ch amount =
    if amount < 0.0 then invalid_arg "Channel.push: negative amount";
    (* Stream oversized messages through in capacity-sized pieces. *)
    let rec go remaining =
      if remaining > eps then begin
        let piece = Float.min remaining ch.capacity in
        push_piece ch piece;
        go (remaining -. piece)
      end
    in
    go amount

  let rec pull_piece ch amount =
    if amount > eps then begin
      if ch.clevel +. slack ch amount >= amount then begin
        ch.clevel <- Float.max 0.0 (ch.clevel -. amount);
        ch.pulled <- ch.pulled +. amount;
        wake_pushers ch
      end
      else begin
        Effect.perform (Suspend (fun resume -> ch.pullers <- resume :: ch.pullers));
        pull_piece ch amount
      end
    end

  let pull ch amount =
    if amount < 0.0 then invalid_arg "Channel.pull: negative amount";
    let rec go remaining =
      if remaining > eps then begin
        let piece = Float.min remaining ch.capacity in
        pull_piece ch piece;
        go (remaining -. piece)
      end
    in
    go amount

  let level ch = ch.clevel
  let total_pushed ch = ch.pushed
  let total_pulled ch = ch.pulled
end

module Server = struct
  type engine = t

  type params = {
    rate_bytes_per_s : float;
    latency_s : float;
    per_packet_s : float;
    packet_bytes : float;
  }

  type t = {
    eng : engine;
    p : params;
    mutable busy_until : float;
    mutable busy : float;
    mutable bytes : float;
  }

  let create eng p =
    if p.rate_bytes_per_s <= 0.0 then invalid_arg "Server.create: rate must be positive";
    { eng; p; busy_until = 0.0; busy = 0.0; bytes = 0.0 }

  let service_time p amount =
    let packets = if amount <= 0.0 then 0.0 else ceil (amount /. p.packet_bytes) in
    (amount /. p.rate_bytes_per_s) +. (packets *. p.per_packet_s)

  let transfer srv amount =
    if amount < 0.0 then invalid_arg "Server.transfer: negative amount";
    let tnow = srv.eng.enow in
    let ser = service_time srv.p amount in
    let start = Float.max tnow srv.busy_until in
    srv.busy_until <- start +. ser;
    srv.busy <- srv.busy +. ser;
    srv.bytes <- srv.bytes +. amount;
    wait (srv.busy_until -. tnow +. srv.p.latency_s)

  let busy_time srv = srv.busy
  let bytes_moved srv = srv.bytes
end
