(* Pure helpers of the benchmark: order statistics, open-loop schedule
   accounting and backlog detection, and the result-line encoding.
   Everything here is deterministic and covered by selftest.ml. *)

(* Nearest-rank percentile: the smallest sample with at least [p] % of
   the samples at or below it.  [p] in (0, 100]. *)
let percentile p samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if not (p > 0.0 && p <= 100.0) then invalid_arg "Stats.percentile: p outside (0, 100]";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 1 (min n rank) - 1)

let median samples = percentile 50.0 samples

(* Mean of the slowest [100 - p] % of the samples (at least one): a tail
   figure that, unlike a percentile, does not jump when the samples form
   clusters far apart.  [p] in [0, 100). *)
let tail_mean p samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.tail_mean: no samples";
  if not (p >= 0.0 && p < 100.0) then invalid_arg "Stats.tail_mean: p outside [0, 100)";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let k = max 1 (int_of_float (Float.ceil ((100.0 -. p) /. 100.0 *. float_of_int n))) in
  Array.fold_left ( +. ) 0.0 (Array.sub sorted (n - k) k) /. float_of_int k

(* Samples strictly above the nearest-rank [p]-th percentile: the guide
   for picking the tail level a run can resolve. *)
let beyond p samples =
  let v = percentile p samples in
  Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 samples

(* [stat] of each run of [size] consecutive samples (a shorter remainder
   is dropped), then the median over those windows; [stat] of all the
   samples when there is not one whole window.  A burst of interference
   from the host skews one or two windows, not the median of them. *)
let median_of_windows ~size stat samples =
  let n = Array.length samples in
  if size <= 0 then invalid_arg "Stats.median_of_windows: size must be positive";
  if n < size then stat samples
  else median (Array.init (n / size) (fun w -> stat (Array.sub samples (w * size) size)))

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: empty"
  | _ ->
    if List.exists (fun x -> not (x > 0.0)) xs then invalid_arg "Stats.geomean: non-positive value";
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Open-loop schedule: request [i] of a stream at [rate] per second that
   starts at [start] is due at [start + i / rate]. *)
let due_time ~start ~rate i = start +. (float_of_int i /. rate)

(* Requests [first, n) already due at [now]: the indices one scheduling
   round takes together, as a server batches a wake-up. *)
let due_batch ~start ~rate ~first ~n ~now =
  let rec last i = if i < n && due_time ~start ~rate i <= now then last (i + 1) else i in
  (first, last first)

(* A request's latency counts from when it was due, not from when the
   generator got round to sending it, so a stall is charged to every
   request that waited behind it. *)
let latency_from_due ~due ~finished = finished -. due

(* An open-loop phase that ends further behind schedule than the
   latency limit has a growing backlog: at a sustainable rate the lag
   stays bounded by the longest single round. *)
let backlog_growing ~limit_s end_lag_s = end_lag_s > limit_s

(* The result line: the last line of standard output. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    if not (Float.is_finite value) then invalid_arg ("Stats.result_line: non-finite " ^ name);
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric metrics))

(* Peak resident set of this process (Linux VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "peak_rss_mb: no VmHWM in /proc/self/status"
  in
  scan ()
