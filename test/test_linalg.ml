open Mbac_oracles
open Test_util

let test_solve_identity () =
  let a = [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let x = Linalg.solve a [| 3.0; 4.0 |] in
  check_close ~tol:1e-12 "x0" 3.0 x.(0);
  check_close ~tol:1e-12 "x1" 4.0 x.(1)

let test_solve_known () =
  (* 2x + y = 5; x - y = 1  ->  x = 2, y = 1 *)
  let a = [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] in
  let x = Linalg.solve a [| 5.0; 1.0 |] in
  check_close ~tol:1e-12 "x" 2.0 x.(0);
  check_close ~tol:1e-12 "y" 1.0 x.(1)

let test_solve_needs_pivoting () =
  (* zero in the leading position forces a row swap *)
  let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Linalg.solve a [| 7.0; 9.0 |] in
  check_close ~tol:1e-12 "x" 9.0 x.(0);
  check_close ~tol:1e-12 "y" 7.0 x.(1)

let test_solve_roundtrip =
  qcheck ~count:200 "solve then multiply recovers b"
    QCheck.(array_of_size (Gen.return 9) (float_range (-5.0) 5.0))
    (fun data ->
      let a = Array.init 3 (fun i -> Array.init 3 (fun j -> data.((3 * i) + j))) in
      (* make it diagonally dominant so it is well-conditioned *)
      for i = 0 to 2 do
        a.(i).(i) <- a.(i).(i) +. 20.0
      done;
      let b = [| 1.0; -2.0; 3.0 |] in
      let x = Linalg.solve a b in
      let b' = Linalg.mat_vec a x in
      Array.for_all2 (fun u v -> abs_float (u -. v) <= 1e-8) b b')

let test_singular () =
  let a = [| [| 1.0; 1.0 |]; [| 2.0; 2.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Linalg.solve: singular matrix")
    (fun () -> ignore (Linalg.solve a [| 1.0; 2.0 |]))

let test_stationary_two_state () =
  (* on/off chain: rate on->off = 2, off->on = 1 -> pi = (1/3, 2/3) *)
  let q = [| [| -2.0; 2.0 |]; [| 1.0; -1.0 |] |] in
  let pi = Linalg.stationary_distribution q in
  check_close ~tol:1e-12 "pi0" (1.0 /. 3.0) pi.(0);
  check_close ~tol:1e-12 "pi1" (2.0 /. 3.0) pi.(1)

let test_stationary_three_state () =
  (* symmetric ring: uniform stationary distribution *)
  let q =
    [| [| -2.0; 1.0; 1.0 |]; [| 1.0; -2.0; 1.0 |]; [| 1.0; 1.0; -2.0 |] |]
  in
  let pi = Linalg.stationary_distribution q in
  Array.iter (fun v -> check_close ~tol:1e-12 "uniform" (1.0 /. 3.0) v) pi

let test_stationary_sums_to_one =
  qcheck ~count:100 "stationary distribution is a distribution"
    QCheck.(array_of_size (Gen.return 6) (float_range 0.1 5.0))
    (fun rates ->
      (* random irreducible 3-state generator *)
      let q =
        [| [| -.(rates.(0) +. rates.(1)); rates.(0); rates.(1) |];
           [| rates.(2); -.(rates.(2) +. rates.(3)); rates.(3) |];
           [| rates.(4); rates.(5); -.(rates.(4) +. rates.(5)) |] |]
      in
      let pi = Linalg.stationary_distribution q in
      let sum = Array.fold_left ( +. ) 0.0 pi in
      abs_float (sum -. 1.0) <= 1e-10 && Array.for_all (fun v -> v >= -1e-12) pi)

let suite =
  [ ( "linalg",
      [ test "identity" test_solve_identity;
        test "known system" test_solve_known;
        test "pivoting" test_solve_needs_pivoting;
        test_solve_roundtrip;
        test "singular matrix" test_singular;
        test "two-state stationary" test_stationary_two_state;
        test "ring stationary" test_stationary_three_state;
        test_stationary_sums_to_one ] ) ]
