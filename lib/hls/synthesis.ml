open Tapa_cs_device
open Tapa_cs_graph

type profile = {
  task_id : int;
  resources : Resource.t;
  startup_cycles : float;
  steady_cycles : float;
}

type report = {
  profiles : profile array;
  distinct_kinds : int;
  cache_hits : int;
  sequential_runs : int;
  total_resources : Resource.t;
}

(* Tasks of the same kind with the same compute shape share one synthesis
   run; tasks with explicit resource overrides are keyed on the override
   too so heterogeneous calibrations stay distinct.

   The key is a digest of a canonical length-prefixed serialization, not
   a structural tuple.  The tuple key had two latent defects: the [kind]
   string sat next to variable-length fields with no framing (so two
   different tasks could in principle serialize alike), and the compute
   record's floats were compared with polymorphic equality, under which
   [nan <> nan] — a task whose traffic came out as NaN would never match
   its own key and silently resynthesize every occurrence. *)
let cache_key (t : Task.t) =
  let buf = Buffer.create 128 in
  let str s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let int i = Buffer.add_string buf (string_of_int i); Buffer.add_char buf ';' in
  let flt f = Buffer.add_string buf (Printf.sprintf "%h" f); Buffer.add_char buf ';' in
  str t.kind;
  flt t.compute.ii;
  flt t.compute.elems;
  flt t.compute.ops_per_elem;
  int t.compute.elem_bits;
  int t.compute.buffer_bytes;
  int t.compute.lanes;
  int (List.length t.mem_ports);
  List.iter
    (fun (p : Task.mem_port) ->
      Buffer.add_char buf (match p.dir with Task.Read -> 'r' | Task.Write -> 'w');
      int p.width_bits;
      flt p.bytes;
      match p.channel with None -> Buffer.add_char buf 'n' | Some c -> int c)
    t.mem_ports;
  (match t.resources with
  | None -> Buffer.add_char buf 'n'
  | Some (r : Resource.t) ->
    Buffer.add_char buf 'r';
    int r.lut; int r.ff; int r.bram; int r.dsp; int r.uram);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let run ?board ?pool g =
  let tasks = Taskgraph.tasks g in
  (* Collect the distinct synthesis jobs first (one representative task per
     cache key, in first-occurrence order), run them through the domain
     pool, then fill the per-task profiles from the completed cache.  The
     cache-hit accounting is exactly the sequential solver's: every task
     beyond the first of its kind is a hit. *)
  let seen = Hashtbl.create 64 in
  let distinct = ref [] in
  Array.iter
    (fun (t : Task.t) ->
      let key = cache_key t in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        distinct := t :: !distinct
      end)
    tasks;
  let distinct = Array.of_list (List.rev !distinct) in
  let estimates =
    Tapa_cs_util.Pool.parallel_map ?pool (fun t -> Estimator.estimate ?board t) distinct
  in
  let cache = Hashtbl.create 64 in
  Array.iteri (fun i t -> Hashtbl.add cache (cache_key t) estimates.(i)) distinct;
  let profiles =
    Array.map
      (fun (t : Task.t) ->
        {
          task_id = t.id;
          resources = Hashtbl.find cache (cache_key t);
          startup_cycles = Estimator.startup_cycles t;
          steady_cycles = Estimator.steady_cycles t;
        })
      tasks
  in
  let total_resources =
    Array.fold_left (fun acc p -> Resource.add acc p.resources) Resource.zero profiles
  in
  {
    profiles;
    distinct_kinds = Array.length distinct;
    cache_hits = Array.length tasks - Array.length distinct;
    sequential_runs = Taskgraph.num_tasks g;
    total_resources;
  }

let profile_of r id = r.profiles.(id)
