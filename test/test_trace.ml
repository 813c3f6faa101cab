open Mbac_traffic
open Test_util

let mk rates = Trace.create ~dt:0.5 rates

let test_basic_stats () =
  let t = mk [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close ~tol:1e-12 "duration" 2.0 (Trace.duration t);
  Alcotest.(check int) "length" 4 (Trace.length t);
  check_close ~tol:1e-12 "mean" 2.5 (Trace.mean t);
  check_close ~tol:1e-12 "variance" 1.25 (Trace.variance t)

let test_rate_at_and_wrap () =
  let t = mk [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close ~tol:1e-12 "sample 0" 1.0 (Trace.rate_at t 0.0);
  check_close ~tol:1e-12 "sample 1" 2.0 (Trace.rate_at t 0.5);
  check_close ~tol:1e-12 "within sample" 2.0 (Trace.rate_at t 0.7);
  check_close ~tol:1e-12 "wrap" 1.0 (Trace.rate_at t 2.0);
  check_close ~tol:1e-12 "wrap further" 3.0 (Trace.rate_at t 5.3)

let test_scale_to_mean () =
  let t = mk [| 1.0; 3.0 |] in
  let t' = Trace.scale_to_mean t ~mean:10.0 in
  check_close ~tol:1e-12 "scaled mean" 10.0 (Trace.mean t');
  check_close ~tol:1e-12 "scaled variance" 25.0 (Trace.variance t');
  check_close ~tol:1e-12 "shape preserved" 5.0 t'.Trace.rates.(0)

let test_csv_roundtrip () =
  let t = mk [| 1.25; 0.0; 3.5; 2.0 |] in
  let t' = Trace.of_csv (Trace.to_csv t) in
  check_close ~tol:1e-9 "dt" t.Trace.dt t'.Trace.dt;
  Alcotest.(check int) "length" (Trace.length t) (Trace.length t');
  Array.iteri
    (fun i r -> check_close_abs ~tol:1e-9 "rate" r t'.Trace.rates.(i))
    t.Trace.rates

let test_trace_source_playback () =
  let t = mk [| 1.0; 2.0; 3.0 |] in
  let src = Trace_source.create_at_offset t ~offset:0.0 ~start:0.0 in
  check_close ~tol:1e-12 "initial" 1.0 (Source.rate src);
  check_close ~tol:1e-12 "first change" 0.5 (Source.next_change src);
  Source.fire src ~now:0.5;
  check_close ~tol:1e-12 "second sample" 2.0 (Source.rate src);
  Source.fire src ~now:(Source.next_change src);
  check_close ~tol:1e-12 "third sample" 3.0 (Source.rate src);
  Source.fire src ~now:(Source.next_change src);
  check_close ~tol:1e-12 "wrapped" 1.0 (Source.rate src)

let test_trace_source_offset () =
  let t = mk [| 1.0; 2.0; 3.0; 4.0 |] in
  (* offset 0.75 -> inside sample 1 (rate 2), 0.25 left in it *)
  let src = Trace_source.create_at_offset t ~offset:0.75 ~start:10.0 in
  check_close ~tol:1e-12 "rate at offset" 2.0 (Source.rate src);
  check_close ~tol:1e-12 "remaining time" 10.25 (Source.next_change src)

let test_trace_source_rle () =
  (* runs of equal rates cost a single event *)
  let t = mk [| 5.0; 5.0; 5.0; 7.0; 7.0; 1.0 |] in
  let src = Trace_source.create_at_offset t ~offset:0.0 ~start:0.0 in
  check_close ~tol:1e-12 "run end" 1.5 (Source.next_change src);
  Source.fire src ~now:1.5;
  check_close ~tol:1e-12 "next run rate" 7.0 (Source.rate src);
  check_close ~tol:1e-12 "next run end" 2.5 (Source.next_change src);
  Source.fire src ~now:2.5;
  check_close ~tol:1e-12 "third run rate" 1.0 (Source.rate src)

let test_trace_source_time_average () =
  (* playback time-average must equal the trace mean *)
  let rng = Mbac_stats.Rng.create ~seed:900 in
  let rates = Array.init 64 (fun _ -> Mbac_stats.Rng.float rng *. 10.0) in
  let t = mk rates in
  let src = Trace_source.create rng t ~start:0.0 in
  let acc = Mbac_stats.Welford.Weighted.create () in
  let now = ref 0.0 in
  (* integrate over many loops of the trace *)
  while !now < 50.0 *. Trace.duration t do
    let next = Source.next_change src in
    Mbac_stats.Welford.Weighted.add acc ~weight:(next -. !now) (Source.rate src);
    now := next;
    Source.fire src ~now:!now
  done;
  check_close ~tol:0.02 "time-average = trace mean" (Trace.mean t)
    (Mbac_stats.Welford.Weighted.mean acc)

let test_renegotiate_levels () =
  let t = mk [| 1.0; 5.0; 2.0; 8.0; 3.0; 4.0 |] in
  let r = Renegotiate.segments ~segment_len:3 ~percentile:1.0 t in
  (* max of [1;5;2] = 5, max of [8;3;4] = 8 *)
  Array.iteri
    (fun i expected -> check_close ~tol:1e-12 "segment level" expected r.Trace.rates.(i))
    [| 5.0; 5.0; 5.0; 8.0; 8.0; 8.0 |]

let test_renegotiate_median () =
  let t = mk [| 1.0; 5.0; 2.0; 8.0; 3.0; 4.0 |] in
  let r = Renegotiate.segments ~segment_len:3 ~percentile:0.5 t in
  check_close ~tol:1e-12 "median segment 1" 2.0 r.Trace.rates.(0);
  check_close ~tol:1e-12 "median segment 2" 4.0 r.Trace.rates.(3)

let test_renegotiate_reduces_changes =
  qcheck ~count:50 "renegotiation reduces rate changes"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Mbac_stats.Rng.create ~seed in
      let rates = Array.init 240 (fun _ -> Mbac_stats.Rng.float rng) in
      let t = mk rates in
      let r = Renegotiate.segments ~segment_len:24 ~percentile:0.9 t in
      Renegotiate.renegotiation_count r <= Renegotiate.renegotiation_count t
      && Renegotiate.renegotiation_count r <= 10)

let test_renegotiate_partial_tail () =
  let t = mk [| 1.0; 2.0; 9.0 |] in
  let r = Renegotiate.segments ~segment_len:2 ~percentile:1.0 t in
  check_close ~tol:1e-12 "tail level" 9.0 r.Trace.rates.(2)

let test_mpeg_synth_stats () =
  let rng = Mbac_stats.Rng.create ~seed:901 in
  let p = Mpeg_synth.default_params ~mean_rate:2.0 in
  let t = Mpeg_synth.generate rng p ~frames:16384 in
  Alcotest.(check int) "frames" 16384 (Trace.length t);
  check_close ~tol:0.02 "target mean" 2.0 (Trace.mean t);
  check_close ~tol:0.15 "target std" (0.55 *. 2.0) (sqrt (Trace.variance t));
  Array.iter
    (fun r -> if r < 0.0 then Alcotest.fail "negative rate")
    t.Trace.rates

let test_mpeg_synth_long_memory () =
  (* LRD: autocorrelation at long lags should stay clearly positive *)
  let rng = Mbac_stats.Rng.create ~seed:902 in
  let p = Mpeg_synth.default_params ~mean_rate:1.0 in
  let t = Mpeg_synth.generate rng p ~frames:32768 in
  let acf = Trace.autocorrelation t ~max_lag:2048 in
  Alcotest.(check bool) "acf(256) > 0.05" true (acf.(256) > 0.05);
  Alcotest.(check bool) "acf(1024) > 0.02" true (acf.(1024) > 0.02);
  Alcotest.(check bool) "acf(2048) > 0" true (acf.(2048) > 0.0)

let test_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Trace.create: empty trace")
    (fun () -> ignore (Trace.create ~dt:1.0 [||]));
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Trace.create: negative rate") (fun () ->
      ignore (Trace.create ~dt:1.0 [| 1.0; -1.0 |]))

let suite =
  [ ( "trace",
      [ test "basic stats" test_basic_stats;
        test "rate_at with wrap" test_rate_at_and_wrap;
        test "scale_to_mean" test_scale_to_mean;
        test "csv roundtrip" test_csv_roundtrip;
        test "playback" test_trace_source_playback;
        test "playback offset" test_trace_source_offset;
        test "run-length playback" test_trace_source_rle;
        test "playback time average" test_trace_source_time_average;
        test "renegotiate max" test_renegotiate_levels;
        test "renegotiate median" test_renegotiate_median;
        test_renegotiate_reduces_changes;
        test "renegotiate partial tail" test_renegotiate_partial_tail;
        test "mpeg synth stats" test_mpeg_synth_stats;
        slow_test "mpeg synth long memory" test_mpeg_synth_long_memory;
        test "invalid traces" test_invalid ] ) ]
