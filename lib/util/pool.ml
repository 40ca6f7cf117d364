(* Worker domains idle on [wake] between batches.  A batch is published as
   a single "help" closure that drains a shared atomic index counter, so
   scheduling is dynamic (fast items don't wait for slow ones) while the
   result array is filled strictly by index. *)

type t = {
  mutex : Mutex.t;
  wake : Condition.t;
  mutable batch : (unit -> unit) option; (* help closure of the running batch *)
  mutable batch_id : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  nworkers : int;
  (* Observability only (atomics, no locks): items published but not yet
     claimed, and domains currently inside a mapped closure.  Never read
     by the scheduler itself. *)
  queued : int Atomic.t;
  busy : int Atomic.t;
}

(* Set in every worker so nested [parallel_map] calls (e.g. a parallel
   stage that itself maps) fall back to the sequential path instead of
   blocking on a pool that is already saturated. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let default_jobs () =
  match Sys.getenv_opt "TAPA_CS_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let worker_loop pool =
  Domain.DLS.set in_worker true;
  let last_seen = ref 0 in
  let rec loop () =
    Mutex.lock pool.mutex;
    while (not pool.stop) && (pool.batch = None || pool.batch_id = !last_seen) do
      Condition.wait pool.wake pool.mutex
    done;
    if pool.stop then Mutex.unlock pool.mutex
    else begin
      let id = pool.batch_id in
      let help = Option.get pool.batch in
      Mutex.unlock pool.mutex;
      last_seen := id;
      help ();
      loop ()
    end
  in
  loop ()

let create ?domains () =
  let nworkers =
    match domains with
    | Some d -> Stdlib.max 0 d
    | None -> Stdlib.max 0 (default_jobs () - 1)
  in
  let pool =
    {
      mutex = Mutex.create ();
      wake = Condition.create ();
      batch = None;
      batch_id = 0;
      stop = false;
      workers = [];
      nworkers;
      queued = Atomic.make 0;
      busy = Atomic.make 0;
    }
  in
  pool.workers <- List.init nworkers (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size pool = pool.nworkers
let snapshot pool = (Atomic.get pool.queued, Atomic.get pool.busy)

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers;
  pool.workers <- []

let run_batch pool f a =
  let n = Array.length a in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let failure = Atomic.make None in
  let done_mutex = Mutex.create () in
  let done_cond = Condition.create () in
  let help () =
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        ignore (Atomic.fetch_and_add pool.queued (-1));
        ignore (Atomic.fetch_and_add pool.busy 1);
        (match f a.(i) with
        | v -> results.(i) <- Some v
        | exception e -> ignore (Atomic.compare_and_set failure None (Some e)));
        ignore (Atomic.fetch_and_add pool.busy (-1));
        if Atomic.fetch_and_add completed 1 = n - 1 then begin
          Mutex.lock done_mutex;
          Condition.broadcast done_cond;
          Mutex.unlock done_mutex
        end;
        claim ()
      end
    in
    claim ()
  in
  ignore (Atomic.fetch_and_add pool.queued n);
  Mutex.lock pool.mutex;
  pool.batch_id <- pool.batch_id + 1;
  pool.batch <- Some help;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.mutex;
  help ();
  Mutex.lock done_mutex;
  while Atomic.get completed < n do
    Condition.wait done_cond done_mutex
  done;
  Mutex.unlock done_mutex;
  Mutex.lock pool.mutex;
  pool.batch <- None;
  Mutex.unlock pool.mutex;
  (match Atomic.get failure with Some e -> raise e | None -> ());
  Array.map (function Some v -> v | None -> assert false) results

let parallel_map ?pool f a =
  if Array.length a <= 1 || Domain.DLS.get in_worker then Array.map f a
  else
    match pool with
    | Some p -> if p.nworkers = 0 || p.stop then Array.map f a else run_batch p f a
    | None ->
      let jobs = default_jobs () in
      if jobs <= 1 then Array.map f a
      else begin
        let p = create ~domains:(Stdlib.min (jobs - 1) (Array.length a - 1)) () in
        Fun.protect ~finally:(fun () -> shutdown p) (fun () -> run_batch p f a)
      end
