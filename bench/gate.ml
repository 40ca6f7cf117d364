(* Checks shared by the CI gate programs (certcheck, simgate,
   analyzegate, ilpgate, incgate, farmgate, servegate).

   Every verdict here is reached from counts and byte equality, never
   from the wall clock, so a gate's outcome depends only on the code.
   [timed] figures feed printed lines, plus ilpgate's absolute 30 s
   ceiling; speed itself is measured by perfbench. *)

open Tapa_cs
open Tapa_cs_util
open Tapa_cs_device
open Tapa_cs_farm
module Partition = Tapa_cs_floorplan.Partition

let fail fmt = Printf.ksprintf (fun s -> Printf.printf "  FAIL: %s\n%!" s; exit 1) fmt

(* [f ()] with its wall-clock seconds, for printed lines. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let find ~sub s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None else if String.sub s i n = sub then Some i else go (i + 1)
  in
  go 0

let contains ~sub s = find ~sub s <> None

let compile ~label ~fpgas graph =
  match Flow.tapa_cs ~cluster:(Cluster.make ~board:Board.u55c fpgas) graph with
  | Ok d -> d
  | Error e -> fail "%s compile failed: %s" label e

(* Two runs of [f] must agree. *)
let repeatable ~label ?(same = ( = )) f =
  let first = f () in
  if not (same first (f ())) then fail "%s: two runs differ" label;
  first

let with_pool ?domains f =
  let pool = Pool.create ?domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* [f] on a zero-worker pool against [f] on the default pool.  On a
   one-core host both pools are sequential, so the comparison is
   skipped.  Returns the sequential result. *)
let jobs_invariant ~label ?(same = ( = )) f =
  let seq = with_pool ~domains:0 f in
  if Pool.default_jobs () >= 2 && not (same seq (with_pool f)) then
    fail "%s: jobs=1 and jobs=N differ" label;
  seq

(* Partition results agree on everything but the wall-clock runtime. *)
let same_solve (a : Partition.result) (b : Partition.result) =
  let strip (r : Partition.result) = { r with stats = { r.stats with runtime_s = 0.0 } } in
  strip a = strip b

let same_farm a b = Farm.stats_json a = Farm.stats_json b

(* The farm's books: per-tenant accounting closes, boards are owned
   exclusively, no strict tenant ends silently degraded, no tenant is
   down without an attempt, and every down-type fault either recovers
   within the horizon or names a displaced tenant that never did (gave
   up, ends unplaced or ends not healthy). *)
let farm_books ~label (stats : Farm.stats) =
  List.iter
    (fun (r : Farm.tenant_report) ->
      let name = r.tenant.Tenant.name in
      if r.tenant.Tenant.slo = Tenant.Strict && r.final_health = Farm.Degraded then
        fail "%s: strict tenant %s ended silently degraded" label name;
      if r.final_health = Farm.Down && not (r.gave_up || r.attempts > 0) then
        fail "%s: tenant %s down without any recorded attempt" label name;
      let lifetime = stats.horizon_s -. r.tenant.Tenant.arrival_s in
      let sum = r.healthy_s +. r.degraded_s +. r.down_s in
      if Float.abs (sum -. lifetime) > 1e-6 then
        fail "%s: tenant %s accounts %.6f s of a %.6f s lifetime" label name sum lifetime)
    stats.tenants;
  let owned = List.concat_map (fun (r : Farm.tenant_report) -> r.devices) stats.tenants in
  if List.length owned <> List.length (List.sort_uniq compare owned) then
    fail "%s: two tenants own the same board" label;
  let never_recovered id =
    List.exists
      (fun (r : Farm.tenant_report) ->
        r.tenant.Tenant.id = id && (r.gave_up || r.devices = [] || r.final_health <> Farm.Healthy))
      stats.tenants
  in
  List.iter
    (fun (f : Farm.fault_report) ->
      match f.ttr_s with
      | Some ttr ->
        if ttr < 0.0 || ttr > stats.horizon_s -. f.at_s then
          fail "%s: fault %S at %.1f s reports TTR %.3f s outside [0, horizon - at]" label f.event
            f.at_s ttr
      | None ->
        if not (List.exists never_recovered f.displaced) then
          fail "%s: fault %S has no TTR yet every displaced tenant recovered" label f.event)
    stats.faults
