(* What every workload shares: the clock, the run context and the
   accounting of attempted and failed operations. *)

module Pool = Tapa_cs_util.Pool

let now = Unix.gettimeofday

type ctx = {
  seed : int;
  seconds : float;  (** length of the measured region *)
  trace : bool;
  pool : Pool.t;  (** caller-owned, shared by every operation of the run *)
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** first failure reasons, newest first *)
}

let create ~seed ~seconds ~trace ~pool =
  { seed; seconds; trace; pool; attempted = 0; failed = 0; notes = [] }

(* Domains that work on a batch: the pool's workers plus the caller. *)
let domains ctx = Pool.size ctx.pool + 1

let attempt ctx = ctx.attempted <- ctx.attempted + 1

(* Count one failed operation, keeping the first few reasons for the
   report printed before the result line. *)
let fail ctx fmt =
  Printf.ksprintf
    (fun reason ->
      ctx.failed <- ctx.failed + 1;
      if List.length ctx.notes < 5 then ctx.notes <- reason :: ctx.notes)
    fmt

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Set-up runs [reps] times and reports the median, so one slow
   repetition does not decide the metric; the last repetition's inputs
   are the ones measured. *)
let setup ~reps f =
  let rec go i acc =
    let v, dt = timed f in
    if i + 1 >= reps then (v, Stats.median (Array.of_list (dt :: acc))) else go (i + 1) (dt :: acc)
  in
  go 0 []

(* Report lines printed before the result line: the workload's own
   named figures, for a reader; the driver reads only the last line. *)
let report name value unit = Printf.printf "# %-32s %14.6g %s\n" name value unit
