(* The histogram's log layout: bucket geometry, out-of-range
   accounting, the documented quantile error bound, and the merge
   algebra the sharded-telemetry contract relies on. *)

open Mbac_telemetry
open Test_util

module Q = struct
  include Histogram

  (* a log layout, by default {!Histogram.default_log} *)
  let create ?(lo = 1e-9) ?(decades = 24) ?(buckets_per_decade = 20) () =
    Histogram.create (Log { lo; decades; buckets_per_decade })
end

(* ---------- geometry and out-of-range accounting ---------- *)

let test_bucket_edges () =
  (* lo = 1, 3 decades, 10 buckets/decade: log_10 lo = 0 exactly, so
     the index arithmetic has no representation slack. *)
  let h = Q.create ~lo:1.0 ~decades:3 ~buckets_per_decade:10 () in
  Alcotest.(check int) "buckets = decades * bpd" 30 (Q.buckets h);
  check_close "hi = lo * 10^decades" 1000.0 (Q.hi h);
  Alcotest.(check int) "x < lo -> underflow" (-1) (Q.bucket_index h 0.5);
  Alcotest.(check int) "x = lo -> bucket 0" 0 (Q.bucket_index h 1.0);
  Alcotest.(check int) "first bucket interior" 0 (Q.bucket_index h 1.05);
  Alcotest.(check int) "last bucket of decade 0" 9 (Q.bucket_index h 9.9);
  Alcotest.(check int) "decade 1 interior" 15 (Q.bucket_index h 35.0);
  Alcotest.(check int) "x = hi -> overflow" 30 (Q.bucket_index h 1000.0);
  Alcotest.(check int) "far above hi -> overflow" 30 (Q.bucket_index h 1e9);
  (* bucket bounds bracket their members *)
  let i = Q.bucket_index h 35.0 in
  Alcotest.(check bool) "lower <= x < lower * g" true
    (Q.bucket_lower h i <= 35.0 && 35.0 < Q.bucket_lower h (i + 1));
  Alcotest.(check bool) "mid inside the bucket" true
    (Q.bucket_lower h i < Q.bucket_mid h i
    && Q.bucket_mid h i < Q.bucket_lower h (i + 1))

let test_observe_counts () =
  let h = Q.create ~lo:1.0 ~decades:2 ~buckets_per_decade:5 () in
  List.iter (Q.observe h) [ 0.0; -3.0; 0.5; 2.0; 50.0; 100.0; 1e6; nan; infinity ];
  (* zero and negatives are finite values below lo: underflow, never
     dropped silently *)
  Alcotest.(check int) "underflow counts 0, negatives, small" 3 (Q.underflow h);
  Alcotest.(check int) "overflow counts x >= hi" 2 (Q.overflow h);
  Alcotest.(check int) "count includes non-finite" 9 (Q.count h);
  check_close "sum over finite values" (0.0 -. 3.0 +. 0.5 +. 2.0 +. 50.0
                                        +. 100.0 +. 1e6)
    (Q.sum h);
  Alcotest.(check int) "in-range mass" 2
    (Array.fold_left ( + ) 0 (Q.counts h))

let test_create_validation () =
  List.iteri
    (fun i f ->
      match f () with
      | (_ : Q.t) -> Alcotest.failf "bad geometry %d accepted" i
      | exception Invalid_argument _ -> ())
    [ (fun () -> Q.create ~lo:0.0 ());
      (fun () -> Q.create ~lo:(-1.0) ());
      (fun () -> Q.create ~lo:nan ());
      (fun () -> Q.create ~decades:0 ());
      (fun () -> Q.create ~buckets_per_decade:0 ());
      (fun () -> Q.create ~decades:1_000_000 ()) ]

(* ---------- quantile readout ---------- *)

let test_quantile_basics () =
  let h = Q.create () in
  Alcotest.(check bool) "empty -> nan" true (Float.is_nan (Q.quantile h 0.5));
  for v = 1 to 100 do
    Q.observe h (float_of_int v)
  done;
  (* decade boundaries (1, 10, 100) sit exactly on bucket edges, where
     the midpoint error attains the bound; allow rounding slack *)
  let bound = Q.max_rel_error h +. 1e-9 in
  List.iter
    (fun (q, exact) ->
      let est = Q.quantile h q in
      let err = abs_float ((est -. exact) /. exact) in
      if err > bound then
        Alcotest.failf "q=%g: estimate %g vs exact %g (rel err %g > %g)" q est
          exact err bound)
    (* exact empirical quantile at rank ceil(q*n) over 1..100 *)
    [ (0.0, 1.0); (0.5, 50.0); (0.9, 90.0); (0.99, 99.0); (1.0, 100.0) ];
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Histogram.quantile: q outside [0, 1]")
    (fun () -> ignore (Q.quantile h 1.5))

let test_quantile_clamps_out_of_range () =
  let h = Q.create ~lo:1.0 ~decades:2 ~buckets_per_decade:5 () in
  List.iter (Q.observe h) [ -1.0; 0.0; 0.5 ];
  check_close "all-underflow median clamps to lo" 1.0 (Q.quantile h 0.5);
  let g = Q.create ~lo:1.0 ~decades:2 ~buckets_per_decade:5 () in
  List.iter (Q.observe g) [ 100.0; 1e7 ];
  check_close "all-overflow median clamps to hi" 100.0 (Q.quantile g 0.5)

let test_max_rel_error_constant () =
  check_close "documented bound at the default layout"
    ((10.0 ** (1.0 /. 40.0)) -. 1.0)
    (Q.max_rel_error (Q.create ()));
  check_close "bound at 10 buckets per decade"
    ((10.0 ** (1.0 /. 20.0)) -. 1.0)
    (Q.max_rel_error (Q.create ~buckets_per_decade:10 ()));
  Alcotest.(check bool) "a linear layout has no relative bound" true
    (Float.is_nan
       (Q.max_rel_error
          (Histogram.create (Linear { lo = 0.0; hi = 1.0; bins = 4 }))))

(* The headline property: for in-range observations the bucket-midpoint
   quantile is within max_rel_error of the exact empirical quantile
   (rank ceil(q*n)), across eight orders of magnitude. *)
let test_quantile_error_qcheck =
  qcheck ~count:300 "quantile within the documented relative-error bound"
    QCheck.(list_of_size Gen.(1 -- 60) (float_range (-8.0) 8.0))
    (fun exponents ->
      let values = List.map (fun u -> 10.0 ** u) exponents in
      let h = Q.create () in
      List.iter (Q.observe h) values;
      let sorted = Array.of_list values in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let bound = Q.max_rel_error h +. 1e-12 in
      List.for_all
        (fun q ->
          let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
          let exact = sorted.(rank - 1) in
          abs_float ((Q.quantile h q -. exact) /. exact) <= bound)
        [ 0.1; 0.5; 0.9; 0.99; 0.999 ])

(* ---------- merge algebra ---------- *)

let test_merge_shape_mismatch () =
  let a = Q.create ~lo:1.0 ~decades:2 ~buckets_per_decade:5 () in
  let b = Q.create ~lo:1.0 ~decades:3 ~buckets_per_decade:5 () in
  Alcotest.check_raises "shape mismatch refused"
    (Invalid_argument "Histogram.merge_into: layout mismatch")
    (fun () -> Q.merge_into ~into:a b)

(* Values are powers of two, so every partial sum is exact and the
   float [sum] field cannot break associativity by rounding. *)
let hist_of ks =
  let h = Q.create () in
  List.iter (fun k -> Q.observe h (2.0 ** float_of_int k)) ks;
  h

let merged a b =
  let m = Q.copy a in
  Q.merge_into ~into:m b;
  m

let test_merge_assoc_comm_qcheck =
  qcheck ~count:200 "merge is associative and commutative"
    QCheck.(triple (small_list (-8 -- 8)) (small_list (-8 -- 8))
              (small_list (-8 -- 8)))
    (fun (ka, kb, kc) ->
      let a = hist_of ka and b = hist_of kb and c = hist_of kc in
      Q.equal (merged (merged a b) c) (merged a (merged b c))
      && Q.equal (merged a b) (merged b a))

let test_merge_matches_pooled_observations () =
  let a = hist_of [ -3; 0; 5 ] and b = hist_of [ 0; 2; 8; 8 ] in
  let pooled = hist_of [ -3; 0; 5; 0; 2; 8; 8 ] in
  Alcotest.(check bool) "merge = observing the union" true
    (Q.equal (merged a b) pooled)

let suite =
  [ ( "quantile_histogram",
      [ test "bucket edges" test_bucket_edges;
        test "observe counts" test_observe_counts;
        test "create validation" test_create_validation;
        test "quantile basics" test_quantile_basics;
        test "quantile clamps out-of-range" test_quantile_clamps_out_of_range;
        test "max_rel_error constant" test_max_rel_error_constant;
        test_quantile_error_qcheck;
        test "merge shape mismatch" test_merge_shape_mismatch;
        test_merge_assoc_comm_qcheck;
        test "merge = pooled observations" test_merge_matches_pooled_observations
      ] ) ]
