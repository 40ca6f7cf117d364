(* Compile service: wire format, coalescing, admission control and the
   deterministic scripted replay (DESIGN.md §5j). *)

open Tapa_cs_service
module Tenant = Tapa_cs_farm.Tenant

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Wire format                                                         *)
(* ------------------------------------------------------------------ *)

let test_request_roundtrip () =
  let r =
    Request.make ~id:7 ~fpgas:2 ~iters:24 ~seed:5 ~klass:Tenant.Strict ~kind:Request.Simulate
      ~app:"stencil" ()
  in
  (match Request.of_line (Request.to_line r) with
  | Ok r' -> check bool "round trip" true (r = r')
  | Error e -> Alcotest.failf "round trip failed: %s" e);
  (* Defaults apply for omitted fields; kind is mandatory. *)
  (match Request.of_line {|{"kind":"compile","app":"knn"}|} with
  | Ok r -> check string "app" "knn" r.Request.app
  | Error e -> Alcotest.failf "minimal request rejected: %s" e);
  (match Request.of_line {|{"app":"knn"}|} with
  | Ok _ -> Alcotest.fail "missing kind accepted"
  | Error _ -> ());
  (match Request.of_line {|{"kind":"compile","bogus":1}|} with
  | Ok _ -> Alcotest.fail "unknown field accepted"
  | Error _ -> ());
  match Request.of_line "{not json" with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error _ -> ()

let test_request_key () =
  let base = Request.make ~kind:Request.Compile ~app:"stencil" () in
  (* id and admission class are not part of the content address … *)
  check string "id excluded" (Request.key base)
    (Request.key { base with Request.id = 99 });
  check string "class excluded" (Request.key base)
    (Request.key { base with Request.klass = Tenant.Strict });
  (* … but every answer-changing field is. *)
  check bool "iters included" true
    (Request.key base <> Request.key { base with Request.iters = base.Request.iters + 1 });
  check bool "kind included" true
    (Request.key base <> Request.key { base with Request.kind = Request.Simulate })

(* ------------------------------------------------------------------ *)
(* Coalescing and admission                                            *)
(* ------------------------------------------------------------------ *)

let test_coalesced_equals_uncoalesced () =
  Service.reset_process_caches ();
  let svc = Service.create () in
  let reqs =
    Array.init 3 (fun i -> Request.make ~id:i ~iters:8 ~kind:Request.Compile ~app:"stencil" ())
  in
  let verdicts = Service.schedule svc reqs in
  let reply_of = function
    | Service.Hit reply | Service.Done { reply; _ } -> reply
    | Service.Rejected _ -> Alcotest.fail "rejected below the admission bound"
  in
  let leader = reply_of verdicts.(0) in
  Array.iter (fun v -> check bool "followers equal leader" true (reply_of v = leader)) verdicts;
  (* An uncoalesced compute of the same request gives the same reply. *)
  check bool "uncoalesced equal" true (Service.compute svc reqs.(0) = leader);
  let c = Service.counters svc in
  check int "one miss" 1 c.Service.misses;
  check int "two coalesced" 2 c.Service.coalesced;
  (* A later identical request is a cache hit with the same payload. *)
  match Service.handle svc reqs.(1) with
  | Service.Hit reply -> check bool "cache hit equal" true (reply = leader)
  | _ -> Alcotest.fail "repeat request did not hit the cache"

let test_rejection_explicit () =
  Service.reset_process_caches ();
  let config = { Service.max_depth = 2; best_effort_depth = 1; cache_entries = 64 } in
  let svc = Service.create ~config () in
  let reqs =
    Array.init 5 (fun i ->
        let klass = if i = 0 then Tenant.Strict else Tenant.Best_effort in
        Request.make ~id:i ~iters:(8 + i) ~klass ~kind:Request.Compile ~app:"stencil" ())
  in
  let verdicts = Service.schedule svc reqs in
  check int "every request answered" 5 (Array.length verdicts);
  let rejected =
    Array.to_list verdicts
    |> List.filter_map (function Service.Rejected { code; _ } -> Some code | _ -> None)
  in
  (* The strict request admits first; with best_effort_depth = 1 and one
     computation already pending, every best-effort request sheds. *)
  check int "four explicit rejections" 4 (List.length rejected);
  List.iter (fun code -> check string "TCS-coded" "TCS701" code) rejected;
  let c = Service.counters svc in
  check int "books close" c.Service.received
    (c.Service.completed + c.Service.rejected_strict + c.Service.shed_best_effort);
  check int "nothing silently dropped" 5 c.Service.received;
  (* The rejection renders as a response line carrying the code. *)
  let line = Service.response_json ~id:9 verdicts.(1) in
  check bool "response carries the code" true (contains line "TCS701")

(* A count the app cannot use is refused by the catalog as a failed
   reply naming the field, not an exception out of a generator, and the
   service keeps answering. *)
let test_bad_counts_fail () =
  Service.reset_process_caches ();
  let svc = Service.create () in
  let cases =
    [
      ("iters", Request.make ~iters:0 ~kind:Request.Compile ~app:"stencil" ());
      ("n", Request.make ~n:0 ~kind:Request.Compile ~app:"knn" ());
      ("d", Request.make ~d:(-3) ~kind:Request.Simulate ~app:"knn" ());
      ("cols", Request.make ~cols:0 ~kind:Request.Compile ~app:"cnn" ());
    ]
  in
  let verdicts = Service.schedule svc (Array.of_list (List.map snd cases)) in
  List.iteri
    (fun i (field, _) ->
      match verdicts.(i) with
      | Service.Done { reply = Service.Failed { reason }; _ } as v ->
        check bool (field ^ " named") true (contains reason (field ^ " must be a positive"));
        check bool "failed response" true
          (contains (Service.response_json ~id:i v) {|"status":"failed"|})
      | _ -> Alcotest.failf "%s: expected a failed reply" field)
    cases;
  match Service.handle svc (Request.make ~iters:8 ~kind:Request.Compile ~app:"stencil" ()) with
  | Service.Done { reply = Service.Compiled _; _ } -> ()
  | _ -> Alcotest.fail "a good request after the bad ones must compile"

(* ------------------------------------------------------------------ *)
(* Scripted replay determinism                                         *)
(* ------------------------------------------------------------------ *)

let script_cfg =
  { Script.default_config with Script.clients = 3; requests_per_client = 6; distinct = 5; seed = 9 }

let test_script_deterministic () =
  let a = Script.report_json (Script.run script_cfg) in
  let b = Script.report_json (Script.run script_cfg) in
  check string "repeat runs byte-identical" a b;
  (* A pool changes wall-clock only, never the report. *)
  let pool = Tapa_cs_util.Pool.create ~domains:2 () in
  let c =
    Fun.protect
      ~finally:(fun () -> Tapa_cs_util.Pool.shutdown pool)
      (fun () -> Script.report_json (Script.run ~pool script_cfg))
  in
  check string "jobs=1 vs jobs=N byte-identical" a c

let test_script_books_close () =
  let report = Script.run script_cfg in
  let c = report.Script.counters in
  check int "every request issued" (script_cfg.Script.clients * script_cfg.Script.requests_per_client)
    c.Service.received;
  check int "books close" c.Service.received
    (c.Service.completed + c.Service.rejected_strict + c.Service.shed_best_effort);
  check int "hits + misses + coalesced = completed" c.Service.completed
    (c.Service.hits + c.Service.misses + c.Service.coalesced);
  check bool "positive virtual throughput" true (report.Script.virtual_requests_per_s > 0.0)

let test_script_warm_faster () =
  let cold = Script.run script_cfg in
  let warm = Script.run { script_cfg with Script.warm = true } in
  check int "warm misses" 0 warm.Script.counters.Service.misses;
  check bool "warm virtual throughput higher" true
    (warm.Script.virtual_requests_per_s > cold.Script.virtual_requests_per_s)

(* ------------------------------------------------------------------ *)
(* Socket round trip                                                   *)
(* ------------------------------------------------------------------ *)

(* All three replies are collected before any check: a failed check
   inside the [Fun.protect] would skip the remaining requests and leave
   the joined server waiting for them forever. *)
let test_socket_roundtrip () =
  Service.reset_process_caches ();
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tcs-test-%d.sock" (Unix.getpid ()))
  in
  let svc = Service.create () in
  let server = Server.create ~socket_path svc in
  let server_domain = Domain.spawn (fun () -> Server.serve ~max_requests:3 server) in
  let first, second, metrics =
    Fun.protect
      ~finally:(fun () ->
        ignore (Domain.join server_domain);
        Server.close server)
      (fun () ->
        let r = Request.make ~id:1 ~iters:8 ~kind:Request.Compile ~app:"stencil" () in
        let first = Server.request_once ~socket_path (Request.to_line r) in
        let second = Server.request_once ~socket_path (Request.to_line r) in
        (first, second, Server.request_once ~socket_path {|{"kind":"metrics"}|}))
  in
  (match first with
  | Ok line ->
    check bool "computed response" true (String.length line > 0 && String.sub line 0 1 = "{")
  | Error e -> Alcotest.failf "first request failed: %s" e);
  (match second with
  | Ok line ->
    check bool "second request served from cache" true (contains line {|"served":"cache"|})
  | Error e -> Alcotest.failf "second request failed: %s" e);
  match metrics with
  | Ok line -> check bool "metrics reports the hit" true (contains line {|"cache_hits":1|})
  | Error e -> Alcotest.failf "metrics request failed: %s" e

(* A line past the 64 KiB cap gets an error reply naming the cap and
   loses its connection; the server goes on serving others.  Both
   replies are collected before any check, so a server that answers
   the long line some other way still serves two requests and stops. *)
let test_socket_line_cap () =
  Service.reset_process_caches ();
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tcs-test-cap-%d.sock" (Unix.getpid ()))
  in
  let server = Server.create ~socket_path (Service.create ()) in
  let server_domain = Domain.spawn (fun () -> Server.serve ~max_requests:2 server) in
  let long_reply, next_reply =
    Fun.protect
      ~finally:(fun () ->
        ignore (Domain.join server_domain);
        Server.close server)
      (fun () ->
        let long = {|{"kind":"compile","app":"stencil","pad":"|} ^ String.make 70_000 'x' ^ {|"}|} in
        let r = Request.make ~id:2 ~iters:8 ~kind:Request.Compile ~app:"stencil" () in
        let long_reply = Server.request_once ~socket_path long in
        (long_reply, Server.request_once ~socket_path (Request.to_line r)))
  in
  (match long_reply with
  | Ok line ->
    check bool "error reply" true (contains line {|"status":"error"|});
    check bool "reply names the cap" true (contains line "65536 bytes")
  | Error e -> Alcotest.failf "overlong request got no reply: %s" e);
  match next_reply with
  | Ok line ->
    check bool "next connection gets a compile answer" true (contains line {|"served":"computed"|})
  | Error e -> Alcotest.failf "request after the overlong line failed: %s" e

let () =
  Alcotest.run "service"
    [
      ( "wire",
        [
          Alcotest.test_case "request round trip" `Quick test_request_roundtrip;
          Alcotest.test_case "content address" `Quick test_request_key;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "coalesced equals uncoalesced" `Quick test_coalesced_equals_uncoalesced;
          Alcotest.test_case "explicit TCS701 rejection" `Quick test_rejection_explicit;
          Alcotest.test_case "bad counts fail, service answers on" `Quick test_bad_counts_fail;
        ] );
      ( "script",
        [
          Alcotest.test_case "deterministic across runs and jobs" `Quick test_script_deterministic;
          Alcotest.test_case "books close" `Quick test_script_books_close;
          Alcotest.test_case "warm beats cold" `Quick test_script_warm_faster;
        ] );
      ( "socket",
        [
          Alcotest.test_case "round trip" `Quick test_socket_roundtrip;
          Alcotest.test_case "line cap" `Quick test_socket_line_cap;
        ] );
    ]
