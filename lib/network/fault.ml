module Prng = Tapa_cs_util.Prng

type link_fault = {
  loss_rate : float;
  down : (float * float) list;
  jitter_s : float;
}

let check_fault f =
  if not (f.loss_rate >= 0.0 && f.loss_rate < 1.0) then
    invalid_arg (Printf.sprintf "Fault: loss_rate %g outside [0, 1)" f.loss_rate);
  if f.jitter_s < 0.0 then invalid_arg "Fault: negative jitter";
  List.iter
    (fun (s, e) -> if s < 0.0 || e < s then invalid_arg "Fault: malformed down window")
    f.down

(* Sort by start and coalesce overlapping or touching windows, so every
   [link_fault] that goes through the constructor satisfies the
   "disjoint and sorted by start" invariant [add_down_windows] needs.
   Zero-length windows stall nothing and are dropped. *)
let normalize_down down =
  List.iter
    (fun (s, e) -> if s < 0.0 || e < s then invalid_arg "Fault: malformed down window")
    down;
  let sorted = List.sort compare (List.filter (fun (s, e) -> e > s) down) in
  let rec merge = function
    | (s1, e1) :: (s2, e2) :: rest when s2 <= e1 -> merge ((s1, Float.max e1 e2) :: rest)
    | w :: rest -> w :: merge rest
    | [] -> []
  in
  merge sorted

let link_fault ?(loss_rate = 0.0) ?(down = []) ?(jitter_s = 0.0) () =
  let f = { loss_rate; down = normalize_down down; jitter_s } in
  check_fault f;
  f

let ideal = link_fault ()
let lossy p = link_fault ~loss_rate:p ()

type retrans = { window : int; timeout_s : float; backoff : float; max_retries : int }

let roce_v2 = { window = 16; timeout_s = 20e-6; backoff = 2.0; max_retries = 8 }

exception Link_lost of { link : string; retries : int }

(* Under go-back-N, a delivered packet costs one successful transmission
   plus, for each of its losses, a full window of N resent packets.  A
   packet is lost Geom(p) times before success — expectation p/(1-p) —
   so the expected wire transmissions per delivered packet are
   1 + N * p/(1-p) = (1 - p + N*p) / (1 - p). *)
let expected_transmissions ~loss_rate r =
  if loss_rate <= 0.0 then 1.0
  else (1.0 -. loss_rate +. (float_of_int r.window *. loss_rate)) /. (1.0 -. loss_rate)

(* The j-th consecutive loss of a packet (probability p^(j+1)) stalls the
   sender timeout * backoff^j.  Summing over j < max_retries gives
   timeout * p * sum_{j=0}^{R-1} (p*backoff)^j — a partial geometric sum,
   finite even when p*backoff >= 1. *)
let expected_timeout_s ~loss_rate r =
  if loss_rate <= 0.0 then 0.0
  else begin
    let ratio = loss_rate *. r.backoff in
    let sum = ref 0.0 and term = ref 1.0 in
    for _ = 1 to r.max_retries do
      sum := !sum +. !term;
      term := !term *. ratio
    done;
    r.timeout_s *. loss_rate *. !sum
  end

(* Per-packet ideal service time on the wire: serialized bytes plus the
   fixed per-packet overhead (same decomposition as Link.transfer_time_s). *)
let packet_service_s ~packet_bytes link =
  let open Link in
  (float_of_int packet_bytes /. (link.bandwidth_gbytes *. link.derate *. 1e9))
  +. (link.per_packet_overhead_ns *. 1e-9)

let slowdown ?packet_bytes ?(retrans = roce_v2) ~loss_rate link =
  let packet_bytes =
    match packet_bytes with Some b -> b | None -> link.Link.default_packet_bytes
  in
  if loss_rate <= 0.0 then 1.0
  else begin
    let service = packet_service_s ~packet_bytes link in
    let extra =
      ((expected_transmissions ~loss_rate retrans -. 1.0) *. service)
      +. expected_timeout_s ~loss_rate retrans
    in
    1.0 +. (extra /. service)
  end

(* Stretch a busy interval [at, at + dur) past every down window it
   overlaps: each overlapped window adds its remaining length, pushing
   the completion time (and possibly into the next window — windows are
   sorted, so a single left-to-right fold settles it). *)
let add_down_windows ~at ~down dur =
  List.fold_left
    (fun finish (s, e) -> if s < finish && e > at then finish +. (e -. Float.max s at) else finish)
    (at +. dur) down
  -. at

let num_packets ~packet_bytes bytes =
  if bytes <= 0.0 then 1.0 else Float.ceil (bytes /. float_of_int packet_bytes)

let transfer_time_s ?packet_bytes ?(retrans = roce_v2) ?(at = 0.0) ~fault link bytes =
  check_fault fault;
  let packet_bytes =
    match packet_bytes with Some b -> b | None -> link.Link.default_packet_bytes
  in
  let ideal_t = Link.transfer_time_s ~packet_bytes link bytes in
  let packets = num_packets ~packet_bytes bytes in
  let p = fault.loss_rate in
  let retry_wire =
    if p <= 0.0 then 0.0
    else
      (expected_transmissions ~loss_rate:p retrans -. 1.0)
      *. packets *. packet_service_s ~packet_bytes link
  in
  let timeouts = packets *. expected_timeout_s ~loss_rate:p retrans in
  let jitter = packets *. fault.jitter_s /. 2.0 in
  add_down_windows ~at ~down:fault.down (ideal_t +. retry_wire +. timeouts +. jitter)

let sample_transfer_time_s ?packet_bytes ?(retrans = roce_v2) ?(at = 0.0) ~fault ~prng link
    bytes =
  check_fault fault;
  let packet_bytes =
    match packet_bytes with Some b -> b | None -> link.Link.default_packet_bytes
  in
  let open Link in
  let packets = int_of_float (num_packets ~packet_bytes bytes) in
  let service = packet_service_s ~packet_bytes link in
  let t = ref (at +. (link.one_way_latency_us *. 1e-6)) in
  let advance dur = t := !t +. add_down_windows ~at:!t ~down:fault.down dur in
  for _ = 1 to packets do
    let jitter = if fault.jitter_s > 0.0 then Prng.float prng fault.jitter_s else 0.0 in
    advance (service +. jitter);
    (* Bernoulli losses with backed-off timeouts; each loss also resends
       the in-flight window behind the lost packet (go-back-N). *)
    let retries = ref 0 in
    while fault.loss_rate > 0.0 && Prng.float prng 1.0 < fault.loss_rate do
      if !retries >= retrans.max_retries then
        raise (Link_lost { link = link.name; retries = !retries });
      let timeout = retrans.timeout_s *. (retrans.backoff ** float_of_int !retries) in
      advance (timeout +. (float_of_int retrans.window *. service));
      incr retries
    done
  done;
  !t -. at

type plan = {
  seed : int;
  loss_rate : float;
  failed_devices : int list;
  failed_links : (int * int) list;
  device_halts : (int * float) list;
  fifo_stalls : (int * float * float) list;
}

let no_faults =
  {
    seed = 0;
    loss_rate = 0.0;
    failed_devices = [];
    failed_links = [];
    device_halts = [];
    fifo_stalls = [];
  }

let make ?(seed = 0) ?(loss_rate = 0.0) ?(failed_devices = []) ?(failed_links = [])
    ?(device_halts = []) ?(fifo_stalls = []) () =
  if not (loss_rate >= 0.0 && loss_rate < 1.0) then
    invalid_arg (Printf.sprintf "Fault.make: loss_rate %g outside [0, 1)" loss_rate);
  List.iter
    (fun (_, t) -> if t < 0.0 then invalid_arg "Fault.make: negative halt time")
    device_halts;
  List.iter
    (fun (_, s, d) ->
      if s < 0.0 || d < 0.0 then invalid_arg "Fault.make: negative stall time/duration")
    fifo_stalls;
  let failed_devices = List.sort_uniq compare failed_devices in
  let failed_links =
    List.sort_uniq compare (List.map (fun (a, b) -> (min a b, max a b)) failed_links)
  in
  { seed; loss_rate; failed_devices; failed_links; device_halts; fifo_stalls }

let is_trivial p =
  p.loss_rate = 0.0 && p.failed_devices = [] && p.failed_links = [] && p.device_halts = []
  && p.fifo_stalls = []

let describe p =
  let items = ref [] in
  let add s = items := s :: !items in
  if p.loss_rate > 0.0 then add (Printf.sprintf "link loss rate %g" p.loss_rate);
  List.iter (fun d -> add (Printf.sprintf "FPGA %d failed" d)) p.failed_devices;
  List.iter (fun (a, b) -> add (Printf.sprintf "link %d-%d down" a b)) p.failed_links;
  List.iter
    (fun (d, t) -> add (Printf.sprintf "FPGA %d halts at %.3g s" d t))
    p.device_halts;
  List.iter
    (fun (f, s, d) -> add (Printf.sprintf "FIFO %d stalled %.3g s at %.3g s" f d s))
    p.fifo_stalls;
  List.rev !items

let pp ppf p =
  if is_trivial p then Format.fprintf ppf "no faults"
  else
    Format.fprintf ppf "@[<hov 2>faults(seed=%d):@ %a@]" p.seed
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
         Format.pp_print_string)
      (describe p)

(* ------------------------------------------------------------------ *)
(* Fleet fault/recovery timelines                                      *)
(* ------------------------------------------------------------------ *)

let parse_link_spec s =
  match String.split_on_char ':' (String.trim s) with
  | [ a; b ] -> (
    match (int_of_string_opt (String.trim a), int_of_string_opt (String.trim b)) with
    | Some a, Some b when a >= 0 && b >= 0 && a <> b -> Ok (min a b, max a b)
    | Some a, Some b when a = b -> Error (Printf.sprintf "link %d:%d connects a device to itself" a b)
    | Some _, Some _ -> Error "device indices must be non-negative"
    | _ -> Error (Printf.sprintf "%S is not a pair of device indices" s))
  | _ -> Error (Printf.sprintf "%S is not of the form A:B" s)

type fleet_event =
  | Device_down of int
  | Device_up of int
  | Link_down of (int * int)
  | Link_up of (int * int)
  | Loss_rate of float

let event_devices = function
  | Device_down d | Device_up d -> [ d ]
  | Link_down (a, b) | Link_up (a, b) -> [ a; b ]
  | Loss_rate _ -> []

let check_devices ~size devices =
  if List.for_all (fun d -> d >= 0 && d < size) devices then Ok ()
  else Error (Printf.sprintf "device index outside the %d-device cluster (0..%d)" size (size - 1))

type timeline_entry = { at_s : float; event : fleet_event }
type timeline = timeline_entry list

let check_event = function
  | Device_down d | Device_up d ->
    if d < 0 then invalid_arg "Fault.timeline: negative device index"
  | Link_down (a, b) | Link_up (a, b) ->
    if a < 0 || b < 0 then invalid_arg "Fault.timeline: negative device index";
    if a = b then invalid_arg "Fault.timeline: self-link"
  | Loss_rate r ->
    if not (r >= 0.0 && r < 1.0) then
      invalid_arg (Printf.sprintf "Fault.timeline: loss rate %g outside [0, 1)" r)

let normalize_event = function
  | Link_down (a, b) -> Link_down (min a b, max a b)
  | Link_up (a, b) -> Link_up (min a b, max a b)
  | e -> e

let timeline events =
  let entries =
    List.map
      (fun (at_s, event) ->
        if at_s < 0.0 || not (Float.is_finite at_s) then
          invalid_arg "Fault.timeline: negative or non-finite timestamp";
        check_event event;
        { at_s; event = normalize_event event })
      events
  in
  List.stable_sort (fun a b -> Float.compare a.at_s b.at_s) entries

let timeline_events tl = List.map (fun e -> (e.at_s, e.event)) tl

(* Fold matched down/up events into [(start, stop))] windows, closing a
   dangling down at the horizon, then normalize through the link_fault
   constructor so the result obeys its disjoint-and-sorted contract. *)
let windows_of ~horizon_s ~is_down ~is_up tl =
  let open_since = ref None in
  let windows = ref [] in
  List.iter
    (fun { at_s; event } ->
      if at_s < horizon_s then begin
        if is_down event then begin
          match !open_since with Some _ -> () | None -> open_since := Some at_s
        end
        else if is_up event then begin
          match !open_since with
          | Some s ->
            windows := (s, at_s) :: !windows;
            open_since := None
          | None -> ()
        end
      end)
    tl;
  (match !open_since with Some s -> windows := (s, horizon_s) :: !windows | None -> ());
  (link_fault ~down:!windows ()).down

let device_down_windows tl ~horizon_s d =
  windows_of ~horizon_s
    ~is_down:(function Device_down x -> x = d | _ -> false)
    ~is_up:(function Device_up x -> x = d | _ -> false)
    tl

let link_down_windows tl ~horizon_s (a, b) =
  let a, b = (min a b, max a b) in
  let own =
    windows_of ~horizon_s
      ~is_down:(function Link_down l -> l = (a, b) | _ -> false)
      ~is_up:(function Link_up l -> l = (a, b) | _ -> false)
      tl
  in
  let ends =
    device_down_windows tl ~horizon_s a @ device_down_windows tl ~horizon_s b
  in
  (link_fault ~down:(own @ ends) ()).down

let loss_episodes tl ~horizon_s =
  let episodes = ref [] in
  let current = ref None in
  List.iter
    (fun { at_s; event } ->
      match event with
      | Loss_rate r when at_s < horizon_s ->
        (match !current with
        | Some (s, rate) when rate > 0.0 && at_s > s -> episodes := (s, at_s, rate) :: !episodes
        | _ -> ());
        current := if r > 0.0 then Some (at_s, r) else None
      | _ -> ())
    tl;
  (match !current with
  | Some (s, rate) when rate > 0.0 && horizon_s > s -> episodes := (s, horizon_s, rate) :: !episodes
  | _ -> ());
  List.rev !episodes

let parse_timeline_entry line =
  let ( let* ) = Result.bind in
  match
    String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")
  with
  | [ t; kind; arg ] -> (
    let* at_s =
      match float_of_string_opt t with
      | Some t when t >= 0.0 && Float.is_finite t -> Ok t
      | _ -> Error (Printf.sprintf "%S is not a non-negative timestamp" t)
    in
    let device () =
      match int_of_string_opt arg with
      | Some d when d >= 0 -> Ok d
      | _ -> Error (Printf.sprintf "%S is not a device index" arg)
    in
    match kind with
    | "device-down" ->
      let* d = device () in
      Ok (at_s, Device_down d)
    | "device-up" ->
      let* d = device () in
      Ok (at_s, Device_up d)
    | "link-down" ->
      let* l = parse_link_spec arg in
      Ok (at_s, Link_down l)
    | "link-up" ->
      let* l = parse_link_spec arg in
      Ok (at_s, Link_up l)
    | "loss" -> (
      match float_of_string_opt arg with
      | Some r when r >= 0.0 && r < 1.0 -> Ok (at_s, Loss_rate r)
      | _ -> Error (Printf.sprintf "%S is not a loss rate in [0, 1)" arg))
    | other ->
      Error
        (Printf.sprintf
           "unknown event %S (expected device-down, device-up, link-down, link-up or loss)"
           other))
  | _ -> Error (Printf.sprintf "%S is not of the form '<t> <event> <arg>'" (String.trim line))

let describe_event = function
  | Device_down d -> Printf.sprintf "device %d down" d
  | Device_up d -> Printf.sprintf "device %d up" d
  | Link_down (a, b) -> Printf.sprintf "link %d-%d down" a b
  | Link_up (a, b) -> Printf.sprintf "link %d-%d up" a b
  | Loss_rate r -> if r > 0.0 then Printf.sprintf "loss episode %g" r else "loss episode ends"

let pp_timeline ppf tl =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list (fun ppf { at_s; event } ->
         Format.fprintf ppf "%8.3f s: %s" at_s (describe_event event)))
    tl
