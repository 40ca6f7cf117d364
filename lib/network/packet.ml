type layer = { name : string; bytes : int }

let layers =
  [
    { name = "preamble+SFD"; bytes = 8 };
    { name = "Ethernet header"; bytes = 14 };
    { name = "IPv4 header"; bytes = 20 };
    { name = "UDP header"; bytes = 8 };
    { name = "IB base transport header"; bytes = 12 };
    { name = "iCRC"; bytes = 4 };
    { name = "Ethernet FCS"; bytes = 4 };
    { name = "inter-frame gap"; bytes = 12 };
  ]

let header_bytes = List.fold_left (fun acc l -> acc + l.bytes) 0 layers

let wire_bytes ~payload =
  if payload <= 0 then invalid_arg "Packet.wire_bytes: payload must be positive";
  payload + header_bytes

let efficiency ~payload = float_of_int payload /. float_of_int (wire_bytes ~payload)

let effective_gbps ?(line_rate_gbps = 100.0) ~payload () = line_rate_gbps *. efficiency ~payload

let packets_for ~payload ~bytes =
  if payload <= 0 then invalid_arg "Packet.packets_for: payload must be positive";
  ceil (bytes /. float_of_int payload)
