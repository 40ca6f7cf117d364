type t = Daisy_chain | Ring | Bus | Star | Mesh of int | Hypercube

let check ~total i j =
  if total <= 0 then invalid_arg "Topology: empty cluster";
  if i < 0 || i >= total || j < 0 || j >= total then invalid_arg "Topology: device out of range"

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let check_size topo total =
  match topo with
  | Hypercube when not (is_power_of_two total) ->
    Error (Printf.sprintf "a hypercube needs a power-of-two number of devices, got %d" total)
  | _ -> Ok ()

let popcount n =
  let rec go acc n = if n = 0 then acc else go (acc + (n land 1)) (n lsr 1) in
  go 0 n

let dist topo ~total i j =
  check ~total i j;
  if i = j then 0
  else begin
    match topo with
    | Daisy_chain -> abs (i - j)
    | Ring ->
      let d = abs (i - j) in
      min d (total - d)
    | Bus -> 1
    | Star -> if i = 0 || j = 0 then 1 else 2
    | Mesh cols ->
      if cols <= 0 then invalid_arg "Topology.Mesh: cols must be positive";
      let ri = i / cols and ci = i mod cols in
      let rj = j / cols and cj = j mod cols in
      abs (ri - rj) + abs (ci - cj)
    | Hypercube ->
      if not (is_power_of_two total) then invalid_arg "Topology.Hypercube: size must be a power of two";
      popcount (i lxor j)
  end

let neighbors topo ~total i =
  List.filter (fun j -> j <> i && dist topo ~total i j = 1) (List.init total Fun.id)

let diameter topo ~total =
  let d = ref 0 in
  for i = 0 to total - 1 do
    for j = 0 to total - 1 do
      d := max !d (dist topo ~total i j)
    done
  done;
  !d

let name = function
  | Daisy_chain -> "daisy-chain"
  | Ring -> "ring"
  | Bus -> "bus"
  | Star -> "star"
  | Mesh c -> Printf.sprintf "mesh(%d cols)" c
  | Hypercube -> "hypercube"

let all_basic total =
  let base = [ Daisy_chain; Ring; Bus; Star ] in
  let base = if total >= 4 then base @ [ Mesh 2 ] else base in
  if is_power_of_two total then base @ [ Hypercube ] else base

let pp fmt t = Format.pp_print_string fmt (name t)
