type t = { lut : int; ff : int; bram : int; dsp : int; uram : int }

let zero = { lut = 0; ff = 0; bram = 0; dsp = 0; uram = 0 }

let make ?(lut = 0) ?(ff = 0) ?(bram = 0) ?(dsp = 0) ?(uram = 0) () = { lut; ff; bram; dsp; uram }

let add a b =
  { lut = a.lut + b.lut; ff = a.ff + b.ff; bram = a.bram + b.bram; dsp = a.dsp + b.dsp; uram = a.uram + b.uram }

let sub a b =
  { lut = a.lut - b.lut; ff = a.ff - b.ff; bram = a.bram - b.bram; dsp = a.dsp - b.dsp; uram = a.uram - b.uram }
let sum = List.fold_left add zero

let scale k r =
  let f x = int_of_float (ceil (k *. float_of_int x)) in
  { lut = f r.lut; ff = f r.ff; bram = f r.bram; dsp = f r.dsp; uram = f r.uram }

let scale_int k r = { lut = k * r.lut; ff = k * r.ff; bram = k * r.bram; dsp = k * r.dsp; uram = k * r.uram }

let fits a ~within:b = a.lut <= b.lut && a.ff <= b.ff && a.bram <= b.bram && a.dsp <= b.dsp && a.uram <= b.uram

let exceeds a ~limit = not (fits a ~within:limit)

let components r = [ ("LUT", r.lut); ("FF", r.ff); ("BRAM", r.bram); ("DSP", r.dsp); ("URAM", r.uram) ]

let utilization_by used ~total =
  List.map2
    (fun (name, u) (_, t) -> (name, if t = 0 then 0.0 else float_of_int u /. float_of_int t))
    (components used) (components total)

let utilization used ~total =
  List.fold_left (fun acc (_, f) -> Float.max acc f) 0.0 (utilization_by used ~total)

let max_component_name used ~total =
  let by = utilization_by used ~total in
  fst (List.fold_left (fun (bn, bf) (n, f) -> if f > bf then (n, f) else (bn, bf)) ("LUT", -1.0) by)

let is_zero r = r = zero
let equal (a : t) b = a = b

let pp fmt r =
  Format.fprintf fmt "{LUT %d; FF %d; BRAM %d; DSP %d; URAM %d}" r.lut r.ff r.bram r.dsp r.uram
