(* The telemetry layer: histogram bucket edges, the shard merge algebra
   the pool's join runs, sharded-counter determinism under the parallel
   engine. *)

open Mbac_telemetry
open Test_util

(* ---------- Histogram bucket edges ---------- *)

let test_bucket_edges () =
  (* 4 buckets of width 0.25 over [0, 1). *)
  let h = Metric.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:4 in
  let idx = Metric.Histogram.bucket_index h in
  Alcotest.(check int) "below lo -> underflow" (-1) (idx (-0.001));
  Alcotest.(check int) "x = lo -> bucket 0" 0 (idx 0.0);
  Alcotest.(check int) "interior -> its bucket" 1 (idx 0.3);
  Alcotest.(check int) "interior edge -> bucket above" 2 (idx 0.5);
  Alcotest.(check int) "last in-range value" 3 (idx 0.999);
  Alcotest.(check int) "x = hi -> overflow" 4 (idx 1.0);
  Alcotest.(check int) "far above hi -> overflow" 4 (idx 42.0)

let test_observe_counts () =
  let h = Metric.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Metric.Histogram.observe h)
    [ -1.0; 0.0; 3.0; 5.0; 9.999; 10.0; 100.0; nan; infinity ];
  Alcotest.(check int) "underflow" 1 (Metric.Histogram.underflow h);
  (* +inf is non-finite, so it counts toward [count] only, like nan *)
  Alcotest.(check int) "overflow (x = hi and above)" 2
    (Metric.Histogram.overflow h);
  Alcotest.(check (array int)) "bucket counts"
    [| 1; 1; 1; 0; 1 |]
    (Metric.Histogram.counts h);
  (* nan contributes to count but to no bucket and not the sum *)
  Alcotest.(check int) "count includes non-finite" 9
    (Metric.Histogram.count h);
  check_close "sum over finite values" 126.999 (Metric.Histogram.sum h)

let test_histogram_merge_shape_mismatch () =
  let a = Metric.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:4 in
  let b = Metric.Histogram.create ~lo:0.0 ~hi:2.0 ~bins:4 in
  Alcotest.check_raises "shape mismatch refused"
    (Invalid_argument "Metric.Histogram.merge_into: shape mismatch")
    (fun () -> Metric.Histogram.merge_into ~into:a b)

(* ---------- Merge algebra ---------- *)

(* The merge the pool's join runs ([Shard.merge_into_current], cell by
   cell [Metric.merge_into]), read back through snapshots. *)

module H = Metrics.Handle

let h_c = H.counter "c"
let h_s = H.sum "s"
let h_g = H.gauge "g"
let h_h = H.histogram "h" ~lo:0.0 ~hi:1.0 ~bins:4
let h_only_b = H.counter "only_b"

(* A shard holding what [record] records. *)
let shard record =
  let s = Shard.create () in
  Shard.with_current s record;
  s

let shard_a () =
  shard (fun () ->
      H.inc ~by:3 h_c;
      H.add h_s 1.5;
      H.set_gauge h_g 10.0;
      List.iter (H.observe h_h) [ 0.1; 0.6; -0.5 ])

let shard_b () =
  shard (fun () ->
      H.inc ~by:4 h_c;
      H.add h_s 0.25;
      H.set_gauge h_g 20.0;
      List.iter (H.observe h_h) [ 0.6; 2.0; -3.0 ];
      H.inc h_only_b)

let shard_c () =
  shard (fun () ->
      H.inc ~by:5 h_c;
      H.set_gauge h_g 30.0;
      H.observe h_h (-1.0))

(* A fresh shard with [shards] merged into it, in order. *)
let merged shards =
  shard (fun () -> List.iter Shard.merge_into_current shards)

let snapshot s = Shard.with_current s Snapshot.current
let bindings s = Snapshot.bindings (snapshot s)

let test_merge_values () =
  let m = snapshot (merged [ shard_a (); shard_b () ]) in
  Alcotest.(check bool) "counter adds" true
    (Snapshot.find m "c" = Some (Snapshot.Counter 7));
  Alcotest.(check bool) "sum adds" true
    (Snapshot.find m "s" = Some (Snapshot.Sum 1.75));
  Alcotest.(check bool) "gauge takes right operand" true
    (Snapshot.find m "g" = Some (Snapshot.Gauge 20.0));
  Alcotest.(check bool) "union keeps singletons" true
    (Snapshot.find m "only_b" = Some (Snapshot.Counter 1));
  match Snapshot.find m "h" with
  | Some (Snapshot.Histogram h) ->
      Alcotest.(check (array int)) "histogram buckets add"
        [| 1; 0; 2; 0 |] (Metric.Histogram.counts h);
      Alcotest.(check int) "histogram underflow adds" 2
        (Metric.Histogram.underflow h);
      Alcotest.(check int) "histogram overflow adds" 1
        (Metric.Histogram.overflow h);
      Alcotest.(check int) "histogram count adds" 6 (Metric.Histogram.count h);
      check_close "histogram sum adds" (-0.2) (Metric.Histogram.sum h)
  | _ -> Alcotest.fail "merged histogram missing"

let test_merge_associative () =
  let a = shard_a () and b = shard_b () and c = shard_c () in
  let left = merged [ merged [ a; b ]; c ] in
  let right = merged [ a; merged [ b; c ] ] in
  Alcotest.(check bool) "(a+b)+c = a+(b+c), all kinds" true
    (bindings left = bindings right);
  Alcotest.(check bool) "merging leaves the sources as they were" true
    (bindings a = bindings (shard_a ()))

let test_merge_commutative_except_gauge () =
  (* Counters, sums, and histograms commute; gauges deliberately do not
     (right operand wins), so compare with the gauge dropped. *)
  let drop_gauge =
    List.filter (fun (_, v) ->
        match v with Snapshot.Gauge _ -> false | _ -> true)
  in
  let ab = bindings (merged [ shard_a (); shard_b () ])
  and ba = bindings (merged [ shard_b (); shard_a () ]) in
  Alcotest.(check bool) "a+b = b+a modulo gauges" true
    (drop_gauge ab = drop_gauge ba);
  Alcotest.(check bool) "gauge is order-sensitive" true
    (List.assoc "g" ab <> List.assoc "g" ba)

let test_merge_empty_identity () =
  let b = bindings (shard_b ()) in
  Alcotest.(check bool) "an empty shard is a left identity" true
    (b = bindings (merged [ Shard.create (); shard_b () ]));
  Alcotest.(check bool) "an empty shard is a right identity" true
    (b = bindings (merged [ shard_b (); Shard.create () ]))

let test_merge_mismatch () =
  Alcotest.check_raises "kinds must match"
    (Invalid_argument "Metric.merge_into: kind mismatch (counter vs sum)")
    (fun () ->
      Metric.merge_into ~into:(Metric.Counter (ref 0)) (Metric.Sum (ref 1.0)));
  (* the same name at another shape in another shard: the join refuses *)
  let h_wide = H.histogram "h" ~lo:0.0 ~hi:2.0 ~bins:4 in
  let wide = shard (fun () -> H.observe h_wide 0.5) in
  Alcotest.check_raises "a shard of another shape refuses to merge"
    (Invalid_argument "Metric.Histogram.merge_into: shape mismatch")
    (fun () -> ignore (merged [ shard_a (); wide ]))

(* A snapshot holds copies of the cells: recording into the shard after
   it leaves the snapshot as it was, and the other way round. *)
let test_snapshot_copies_cells () =
  let a = shard_a () in
  let snap = snapshot a in
  let json = Snapshot.to_json snap in
  Shard.with_current a (fun () ->
      H.inc h_c;
      H.observe h_h 0.2);
  Alcotest.(check string) "recording after a snapshot leaves it as it was"
    json (Snapshot.to_json snap);
  (match Snapshot.find snap "h" with
  | Some (Snapshot.Histogram h) -> Metric.Histogram.observe h 0.9
  | _ -> Alcotest.fail "histogram missing");
  match Snapshot.find (snapshot a) "h" with
  | Some (Snapshot.Histogram h) ->
      Alcotest.(check int) "the shard's histogram is its own" 4
        (Metric.Histogram.count h)
  | _ -> Alcotest.fail "histogram missing"

let test_json_deterministic () =
  let snap_a = snapshot (shard_a ()) in
  let j = Snapshot.to_json snap_a in
  Alcotest.(check string) "rendering is stable" j (Snapshot.to_json snap_a);
  (* names appear in sorted order *)
  let pos name =
    match String.index_opt j '{' with
    | None -> -1
    | Some _ ->
        let needle = "\"" ^ name ^ "\"" in
        let rec find i =
          if i + String.length needle > String.length j then -1
          else if String.sub j i (String.length needle) = needle then i
          else find (i + 1)
        in
        find 0
  in
  Alcotest.(check bool) "keys sorted by name" true
    (pos "c" < pos "g" && pos "g" < pos "h" && pos "h" < pos "s")

(* ---------- Sharded counters under the parallel engine ---------- *)

let counter_value snapshot name =
  match Snapshot.find snapshot name with
  | Some (Snapshot.Counter n) -> n
  | _ -> 0

let m_sharded = H.counter "qcheck_sharded_total"

let test_sharded_counters_qcheck =
  (* Whatever the per-task increments and the pool width, the merged
     counter equals the serial total. *)
  qcheck ~count:30 "merged sharded counters = serial total"
    QCheck.(pair (list_of_size Gen.(1 -- 20) (0 -- 50)) (1 -- 6))
    (fun (increments, jobs) ->
      Shard.reset_current ();
      ignore
        (Mbac_sim.Parallel.run_tasks ~jobs
           (List.map
              (fun by () -> H.inc ~by m_sharded)
              increments));
      let merged = counter_value (Snapshot.current ()) "qcheck_sharded_total" in
      Shard.reset_current ();
      merged = List.fold_left ( + ) 0 increments)

let snap_counter = H.counter "snap_counter"
let snap_sum = H.sum "snap_sum"
let snap_gauge = H.gauge "snap_gauge"
let snap_hist = H.histogram "snap_hist" ~lo:0.0 ~hi:12.0 ~bins:6

let test_jobs_invariant_snapshot () =
  (* Full-snapshot determinism: metrics recorded by parallel tasks
     (counters, sums, gauges, histograms) aggregate identically for any
     pool width, including the gauge's submission-order winner. *)
  let run jobs =
    Shard.reset_current ();
    ignore
      (Mbac_sim.Parallel.run_tasks ~jobs
         (List.init 12 (fun i () ->
              H.inc ~by:(i + 1) snap_counter;
              H.add snap_sum (0.5 *. float_of_int i);
              H.set_gauge snap_gauge (float_of_int i);
              H.observe snap_hist (float_of_int i))));
    let s = Snapshot.current () in
    Shard.reset_current ();
    s
  in
  let reference = run 1 in
  Alcotest.(check bool) "gauge winner is the last submitted task" true
    (Snapshot.find reference "snap_gauge" = Some (Snapshot.Gauge 11.0));
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d snapshot equals jobs=1" jobs)
        true
        (Snapshot.bindings reference = Snapshot.bindings (run jobs));
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d JSON byte-identical" jobs)
        (Snapshot.to_json reference)
        (Snapshot.to_json (run jobs)))
    [ 2; 4 ]

let suite =
  [ ( "telemetry",
      [ test "histogram bucket edges" test_bucket_edges;
        test "histogram observe counts" test_observe_counts;
        test "histogram shape mismatch" test_histogram_merge_shape_mismatch;
        test "snapshot merge values" test_merge_values;
        test "snapshot merge associative" test_merge_associative;
        test "snapshot merge commutative" test_merge_commutative_except_gauge;
        test "snapshot merge identity" test_merge_empty_identity;
        test "merge refuses kind and shape mismatches" test_merge_mismatch;
        test "snapshot holds copies of the cells" test_snapshot_copies_cells;
        test "snapshot JSON deterministic" test_json_deterministic;
        test_sharded_counters_qcheck;
        test "jobs-invariant snapshot" test_jobs_invariant_snapshot ] ) ]
