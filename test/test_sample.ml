open Mbac_stats
open Test_util

let moments_of ~n f =
  let acc = Welford.create () in
  for _ = 1 to n do
    Welford.add acc (f ())
  done;
  (Welford.mean acc, Welford.variance acc)

let test_exponential_moments () =
  let rng = Rng.create ~seed:100 in
  let mean, var = moments_of ~n:200_000 (fun () -> Sample.exponential rng ~mean:3.0) in
  check_close ~tol:0.02 "exp mean" 3.0 mean;
  check_close ~tol:0.05 "exp variance" 9.0 var

let test_gaussian_moments () =
  let rng = Rng.create ~seed:101 in
  let mean, var =
    moments_of ~n:200_000 (fun () -> Sample.gaussian rng ~mu:2.0 ~sigma:0.5)
  in
  check_close ~tol:0.01 "gaussian mean" 2.0 mean;
  check_close ~tol:0.03 "gaussian variance" 0.25 var

let test_gaussian_tail () =
  (* Pr(Z > 2) should be close to Q(2). *)
  let rng = Rng.create ~seed:102 in
  let n = 400_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Sample.gaussian rng ~mu:0.0 ~sigma:1.0 > 2.0 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  check_close ~tol:0.05 "gaussian tail" (Gaussian.q 2.0) p

let test_truncated_nonneg =
  qcheck ~count:500 "truncated gaussian >= 0"
    QCheck.(pair (float_range 0.0 5.0) (float_range 0.0 3.0))
    (fun (mu, sigma) ->
      let rng = Rng.create ~seed:(int_of_float ((mu +. sigma) *. 1000.0)) in
      Sample.gaussian_truncated_nonneg rng ~mu ~sigma >= 0.0)

let test_truncated_matches_untruncated_when_far () =
  (* With mu/sigma large the truncation is a no-op distributionally. *)
  let rng = Rng.create ~seed:103 in
  let mean, var =
    moments_of ~n:100_000 (fun () ->
        Sample.gaussian_truncated_nonneg rng ~mu:1.0 ~sigma:0.3)
  in
  check_close ~tol:0.01 "truncated mean ~ mu" 1.0 mean;
  check_close ~tol:0.05 "truncated var ~ sigma^2" 0.09 var

let test_lognormal_of_moments () =
  let rng = Rng.create ~seed:104 in
  let mean, var =
    moments_of ~n:400_000 (fun () ->
        Sample.lognormal_of_moments rng ~mean:5.0 ~std:2.0)
  in
  check_close ~tol:0.02 "lognormal mean" 5.0 mean;
  check_close ~tol:0.1 "lognormal variance" 4.0 var

let test_categorical () =
  let rng = Rng.create ~seed:106 in
  let weights = [| 1.0; 2.0; 3.0; 4.0 |] in
  let counts = Array.make 4 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let i = Sample.categorical rng ~weights in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = weights.(i) /. 10.0 in
      let p = float_of_int c /. float_of_int n in
      if abs_float (p -. expected) > 0.01 then
        Alcotest.failf "categorical bucket %d: %.4f vs %.4f" i p expected)
    counts

let test_bernoulli () =
  let rng = Rng.create ~seed:107 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Sample.bernoulli rng ~p:0.3 then incr hits
  done;
  check_close ~tol:0.03 "bernoulli rate" 0.3 (float_of_int !hits /. float_of_int n)

let test_invalid () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "exponential mean 0"
    (Invalid_argument "Sample.exponential: requires mean > 0") (fun () ->
      ignore (Sample.exponential rng ~mean:0.0));
  Alcotest.check_raises "categorical empty"
    (Invalid_argument "Sample.categorical: empty weights") (fun () ->
      ignore (Sample.categorical rng ~weights:[||]))

let suite =
  [ ( "sample",
      [ test "exponential moments" test_exponential_moments;
        test "gaussian moments" test_gaussian_moments;
        test "gaussian tail probability" test_gaussian_tail;
        test_truncated_nonneg;
        test "truncation no-op when mass positive" test_truncated_matches_untruncated_when_far;
        test "lognormal by moments" test_lognormal_of_moments;
        test "categorical" test_categorical;
        test "bernoulli" test_bernoulli;
        test "invalid arguments" test_invalid ] ) ]
