type slot = {
  row : int;
  col : int;
  die : int;
  capacity : Resource.t;
  hbm_channels : int list;
  qsfp_ports : int list;
}

type t = {
  name : string;
  rows : int;
  cols : int;
  slots : slot array;
  total : Resource.t;
  num_hbm_channels : int;
  hbm_bandwidth_gbps : float;
  hbm_capacity_bytes : float;
  onchip_bandwidth_gbps : float;
  max_freq_mhz : float;
  num_qsfp : int;
}

let slot_index t ~row ~col =
  if row < 0 || row >= t.rows || col < 0 || col >= t.cols then invalid_arg "Board.slot_index";
  (row * t.cols) + col

let num_slots t = Array.length t.slots

let manhattan t a b =
  let sa = t.slots.(a) and sb = t.slots.(b) in
  abs (sa.row - sb.row) + abs (sa.col - sb.col)

let die_crossings t a b = abs (t.slots.(a).die - t.slots.(b).die)

let hbm_slots t =
  List.filter (fun i -> t.slots.(i).hbm_channels <> []) (List.init (num_slots t) Fun.id)

let qsfp_slots t =
  List.filter (fun i -> t.slots.(i).qsfp_ports <> []) (List.init (num_slots t) Fun.id)

(* Distribute [n] channel / port ids round-robin over [k] slots. *)
let distribute n k =
  let buckets = Array.make k [] in
  for i = n - 1 downto 0 do
    buckets.(i mod k) <- i :: buckets.(i mod k)
  done;
  buckets

let make_grid ~name ~rows ~cols ~die_of_row ~total ~hbm ~hbm_bw ~hbm_cap ~onchip_bw ~max_freq
    ~num_qsfp ~qsfp_row =
  let n = rows * cols in
  let per_slot = Resource.scale (1.0 /. float_of_int n) total in
  let hbm_buckets = if hbm > 0 then distribute hbm cols else Array.make cols [] in
  let qsfp_buckets = if num_qsfp > 0 then distribute num_qsfp cols else Array.make cols [] in
  let slots =
    Array.init n (fun i ->
        let row = i / cols and col = i mod cols in
        {
          row;
          col;
          die = die_of_row row;
          (* HBM is exposed to the bottom-most row only (paper §4.5). *)
          hbm_channels = (if row = 0 && hbm > 0 then hbm_buckets.(col) else []);
          qsfp_ports = (if row = qsfp_row then qsfp_buckets.(col) else []);
          capacity = per_slot;
        })
  in
  {
    name;
    rows;
    cols;
    slots;
    total;
    num_hbm_channels = hbm;
    hbm_bandwidth_gbps = hbm_bw;
    hbm_capacity_bytes = hbm_cap;
    onchip_bandwidth_gbps = onchip_bw;
    max_freq_mhz = max_freq;
    num_qsfp;
  }

let u55c () =
  make_grid ~name:"Alveo U55C" ~rows:3 ~cols:2
    ~die_of_row:(fun r -> r) (* one SLR per slot row *)
    ~total:(Resource.make ~lut:1_146_240 ~ff:2_292_480 ~bram:1776 ~dsp:8376 ~uram:960 ())
    ~hbm:32 ~hbm_bw:460.0 ~hbm_cap:16e9 ~onchip_bw:35000.0 ~max_freq:300.0 ~num_qsfp:2
    ~qsfp_row:1

let u250 () =
  make_grid ~name:"Alveo U250" ~rows:4 ~cols:2
    ~die_of_row:(fun r -> r)
    ~total:(Resource.make ~lut:1_728_000 ~ff:3_456_000 ~bram:2688 ~dsp:12_288 ~uram:1280 ())
    ~hbm:4 (* 4 DDR4 channels modeled as memory channels *)
    ~hbm_bw:77.0 ~hbm_cap:64e9 ~onchip_bw:35000.0 ~max_freq:300.0 ~num_qsfp:2 ~qsfp_row:2

let stratix10 () =
  make_grid ~name:"Stratix 10" ~rows:2 ~cols:2
    ~die_of_row:(fun _ -> 0)
    ~total:(Resource.make ~lut:1_866_240 ~ff:3_732_480 ~bram:5760 ~dsp:5760 ~uram:0 ())
    ~hbm:4 ~hbm_bw:77.0 ~hbm_cap:32e9 ~onchip_bw:30000.0 ~max_freq:300.0 ~num_qsfp:2 ~qsfp_row:1

let pp fmt t =
  Format.fprintf fmt "%s: %dx%d slots, %d HBM ch, %d QSFP, total %a" t.name t.rows t.cols
    t.num_hbm_channels t.num_qsfp Resource.pp t.total
