(* Self-tests of the benchmark's helpers: order statistics, due-time
   accounting, backlog detection and the result line. *)

let close = Alcotest.float 1e-9

let test_percentile () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.check close "p20 is the 1st of 5" 1.0 (Stats.percentile 20.0 xs);
  Alcotest.check close "p21 rounds up to the 2nd" 2.0 (Stats.percentile 21.0 xs);
  Alcotest.check close "median of an odd count" 3.0 (Stats.median xs);
  Alcotest.check close "p100 is the maximum" 5.0 (Stats.percentile 100.0 xs);
  Alcotest.check close "median of an even count is the lower middle" 2.0 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p99 of 1..100" 99.0 (Stats.percentile 99.0 hundred);
  Alcotest.(check int) "one sample beyond p99 of 100" 1 (Stats.beyond 99.0 hundred);
  Alcotest.(check int) "ten beyond p99 of 1000" 10 (Stats.beyond 99.0 (Array.init 1000 float_of_int));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: no samples") (fun () ->
      ignore (Stats.percentile 50.0 [||]));
  Alcotest.check_raises "p = 0" (Invalid_argument "Stats.percentile: p outside (0, 100]") (fun () ->
      ignore (Stats.percentile 0.0 xs))

let test_percentile_does_not_sort_input () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.median xs);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] xs

let test_tail_mean () =
  Alcotest.check close "slowest quarter of 1..8" 7.5 (Stats.tail_mean 75.0 (Array.init 8 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "slowest half of 3 rounds up to 2" 2.5 (Stats.tail_mean 50.0 [| 3.0; 1.0; 2.0 |]);
  Alcotest.check close "at least one sample" 9.0 (Stats.tail_mean 99.0 [| 9.0; 1.0 |]);
  Alcotest.check_raises "p = 100" (Invalid_argument "Stats.tail_mean: p outside [0, 100)") (fun () ->
      ignore (Stats.tail_mean 100.0 [| 1.0 |]))

let test_median_of_windows () =
  let sum w = Array.fold_left ( +. ) 0.0 w in
  (* Windows [1;2] [3;40] [5;6]; the remainder [7] is dropped. *)
  let xs = [| 1.0; 2.0; 3.0; 40.0; 5.0; 6.0; 7.0 |] in
  Alcotest.check close "median of the window sums" 11.0 (Stats.median_of_windows ~size:2 sum xs);
  Alcotest.check close "one burst moves one window only" 7.0
    (Stats.median_of_windows ~size:1 Stats.median [| 7.0; 7.0; 900.0; 7.0 |]);
  Alcotest.check close "fewer samples than a window: all of them" 6.0 (Stats.median_of_windows ~size:5 sum [| 1.0; 2.0; 3.0 |]);
  Alcotest.check_raises "size 0" (Invalid_argument "Stats.median_of_windows: size must be positive") (fun () ->
      ignore (Stats.median_of_windows ~size:0 sum xs))

let test_geomean () =
  Alcotest.check close "of 1, 4, 16" 4.0 (Stats.geomean [ 1.0; 4.0; 16.0 ]);
  Alcotest.check close "of one value" 7.5 (Stats.geomean [ 7.5 ]);
  Alcotest.check close "scale-equivariant" (10.0 *. Stats.geomean [ 2.0; 3.0 ]) (Stats.geomean [ 20.0; 30.0 ]);
  Alcotest.check_raises "zero" (Invalid_argument "Stats.geomean: non-positive value") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.geomean: empty") (fun () -> ignore (Stats.geomean []))

let test_due_times () =
  Alcotest.check close "request 0 is due at the start" 10.0 (Stats.due_time ~start:10.0 ~rate:4.0 0);
  Alcotest.check close "request 6 at 4/s" 11.5 (Stats.due_time ~start:10.0 ~rate:4.0 6);
  (* At 10/s from t=0, requests 0..3 are due by t=0.35: one round. *)
  Alcotest.(check (pair int int)) "due batch" (0, 4) (Stats.due_batch ~start:0.0 ~rate:10.0 ~first:0 ~n:100 ~now:0.35);
  Alcotest.(check (pair int int)) "nothing due yet" (4, 4) (Stats.due_batch ~start:0.0 ~rate:10.0 ~first:4 ~n:100 ~now:0.35);
  Alcotest.(check (pair int int)) "batch stops at the stream end" (2, 5) (Stats.due_batch ~start:0.0 ~rate:10.0 ~first:2 ~n:5 ~now:9.0);
  (* A 0.3 s stall: the request due at 0.1 and served at 0.45 waited
     0.35 s, though it was sent only after the stall. *)
  Alcotest.check close "latency counts from due" 0.35 (Stats.latency_from_due ~due:0.1 ~finished:0.45)

let test_backlog () =
  let limit_s = 0.1 in
  Alcotest.(check bool) "lag under the limit is not growing" false (Stats.backlog_growing ~limit_s 0.02);
  Alcotest.(check bool) "lag at the limit is not growing" false (Stats.backlog_growing ~limit_s 0.1);
  Alcotest.(check bool) "lag over the limit is growing" true (Stats.backlog_growing ~limit_s 0.5)

let test_result_line () =
  Alcotest.(check string) "shape"
    {|{"correct": true, "attempted": 3, "failed": 0, "metrics": {"op_ms": {"value": 1.5, "unit": "ms"}, "n": {"value": 2, "unit": "count"}}}|}
    (Stats.result_line ~correct:true ~attempted:3 ~failed:0 [ ("op_ms", 1.5, "ms"); ("n", 2.0, "count") ]);
  Alcotest.(check string) "all digits kept" "0.10000000000000001" (Stats.json_number 0.1);
  Alcotest.check_raises "non-finite" (Invalid_argument "Stats.result_line: non-finite x") (fun () ->
      ignore (Stats.result_line ~correct:true ~attempted:1 ~failed:0 [ ("x", nan, "ms") ]))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile;
          Alcotest.test_case "percentile leaves its input alone" `Quick test_percentile_does_not_sort_input;
          Alcotest.test_case "tail mean" `Quick test_tail_mean;
          Alcotest.test_case "median of windows" `Quick test_median_of_windows;
          Alcotest.test_case "geomean" `Quick test_geomean;
        ] );
      ( "open loop",
        [
          Alcotest.test_case "due-time accounting" `Quick test_due_times;
          Alcotest.test_case "backlog detection" `Quick test_backlog;
        ] );
      ("output", [ Alcotest.test_case "result line" `Quick test_result_line ]);
    ]
