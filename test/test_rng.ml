open Mbac_stats
open Test_util

let test_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_copy_independent () =
  let a = Rng.create ~seed:7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  (* the original runs ahead; the copy must still replay its outputs *)
  let ahead = List.init 8 (fun _ -> Rng.bits64 a) in
  let replayed = List.init 8 (fun _ -> Rng.bits64 b) in
  Alcotest.(check (list int64)) "copy replays the original's next outputs"
    ahead replayed;
  (* and the copy running ahead leaves the original where it was *)
  let c = Rng.copy a in
  let from_copy = List.init 8 (fun _ -> Rng.float c) in
  let from_original = List.init 8 (fun _ -> Rng.float a) in
  Alcotest.(check (list (float 0.0))) "original unmoved by its copy"
    from_copy from_original

let test_split_independence () =
  let a = Rng.create ~seed:11 in
  let b = Rng.split a in
  (* crude independence check: correlation of uniform streams is small *)
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. ((Rng.float a -. 0.5) *. (Rng.float b -. 0.5))
  done;
  let corr = !sum /. float_of_int n /. (1.0 /. 12.0) in
  Alcotest.(check bool) "streams uncorrelated" true (abs_float corr < 0.05)

let test_float_range =
  qcheck ~count:1000 "float in [0,1)" QCheck.unit (fun () ->
      let rng = Rng.create ~seed:(Random.int 1_000_000) in
      let x = Rng.float rng in
      x >= 0.0 && x < 1.0)

let test_float_uniformity () =
  let rng = Rng.create ~seed:123 in
  let n = 100_000 in
  let acc = Welford.create () in
  for _ = 1 to n do
    Welford.add acc (Rng.float rng)
  done;
  (* mean 0.5 +- ~4 sigma/sqrt(n), variance 1/12 *)
  check_close_abs ~tol:0.005 "uniform mean" 0.5 (Welford.mean acc);
  check_close ~tol:0.05 "uniform variance" (1.0 /. 12.0) (Welford.variance acc)

let test_int_bounds =
  qcheck ~count:1000 "int in range" QCheck.(int_range 1 1000) (fun n ->
      let rng = Rng.create ~seed:n in
      let x = Rng.int rng n in
      x >= 0 && x < n)

let test_int_uniform () =
  let rng = Rng.create ~seed:9 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let p = float_of_int c /. float_of_int n in
      if abs_float (p -. 0.1) > 0.01 then
        Alcotest.failf "bucket %d has probability %.4f" i p)
    counts

let test_int_invalid () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: requires n > 0")
    (fun () -> ignore (Rng.int rng 0))

let test_derive_deterministic () =
  let a = Rng.derive ~seed:7 ~tag:"cell" in
  let b = Rng.derive ~seed:7 ~tag:"cell" in
  Alcotest.(check int64) "same (seed, tag) same stream" (Rng.bits64 a)
    (Rng.bits64 b);
  let c = Rng.derive ~seed:8 ~tag:"cell" in
  Alcotest.(check bool) "seed matters" true (Rng.bits64 b <> Rng.bits64 c);
  let d = Rng.derive ~seed:7 ~tag:"cell2" in
  Alcotest.(check bool) "tag matters" true
    (Rng.bits64 (Rng.derive ~seed:7 ~tag:"cell") <> Rng.bits64 d)

let test_derive_full_input () =
  (* Every byte of the tag must count, even past any hashing prefix
     limit: tags sharing a long prefix and differing only at the end
     must give different streams. *)
  let prefix = String.make 4096 'x' in
  let a = Rng.derive ~seed:1 ~tag:(prefix ^ "-a") in
  let b = Rng.derive ~seed:1 ~tag:(prefix ^ "-b") in
  Alcotest.(check bool) "suffix-only difference separates streams" true
    (Rng.bits64 a <> Rng.bits64 b)

let test_derive_no_birthday_collisions () =
  (* 200k tags in a 30-bit hash (the old Hashtbl.hash derivation) gave
     ~20 colliding streams; the 64-bit derivation must give none. *)
  let seen = Hashtbl.create 500_000 in
  for i = 0 to 199_999 do
    let tag = Printf.sprintf "fig10-%g-%g"
        (float_of_int i /. 7.0) (float_of_int i /. 3.0) in
    let rng = Rng.derive ~seed:20260706 ~tag in
    let fingerprint = (Rng.bits64 rng, Rng.bits64 rng) in
    match Hashtbl.find_opt seen fingerprint with
    | Some other -> Alcotest.failf "streams collide: %S vs %S" tag other
    | None -> Hashtbl.add seen fingerprint tag
  done

(* Reference implementation of xoshiro256++ / SplitMix64 in plain
   [int64] record fields, as the module was originally written.  The
   production generator keeps its state words in a [Bytes.t] behind the
   unsafe 64-bit bytes primitives to keep the hot path allocation-free;
   this differential check pins its output, and that of a copy taken
   mid-stream, to the canonical int64 formulation bit for bit. *)
module Ref_rng = struct
  type t = {
    mutable s0 : int64;
    mutable s1 : int64;
    mutable s2 : int64;
    mutable s3 : int64;
  }

  let splitmix64 state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let create ~seed =
    let state = ref (Int64.of_int seed) in
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    { s0; s1; s2; s3 }

  let rotl x k =
    Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 t =
    let open Int64 in
    let result = add (rotl (add t.s0 t.s3) 23) t.s0 in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let float t =
    let x = Int64.shift_right_logical (bits64 t) 11 in
    Int64.to_float x *. 0x1.0p-53

  let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }
end

let test_matches_int64_reference =
  qcheck ~count:200 "stream and copies match int64 reference"
    QCheck.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let a = Rng.create ~seed and r = Ref_rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 500 do
        if Rng.bits64 a <> Ref_rng.bits64 r then ok := false
      done;
      (* interleave the float path too: it must consume exactly one step
         and produce the same 53-bit mantissa *)
      for _ = 1 to 500 do
        if Rng.float a <> Ref_rng.float r then ok := false
      done;
      (* a copy taken mid-stream follows the reference's own copy while
         the original moves on past it *)
      let a' = Rng.copy a and r' = Ref_rng.copy r in
      for _ = 1 to 100 do
        if Rng.bits64 a <> Ref_rng.bits64 r then ok := false
      done;
      for _ = 1 to 100 do
        if Rng.float a' <> Ref_rng.float r' then ok := false
      done;
      Rng.bits64 a' = Ref_rng.bits64 r' && Rng.bits64 a = Ref_rng.bits64 r
      && !ok)

let suite =
  [ ( "rng",
      [ test "determinism" test_determinism;
        test "seed sensitivity" test_seed_sensitivity;
        test "copy" test_copy_independent;
        test "split independence" test_split_independence;
        test_float_range;
        test "float uniformity" test_float_uniformity;
        test_int_bounds;
        test "int uniformity" test_int_uniform;
        test "int invalid" test_int_invalid;
        test_matches_int64_reference;
        test "derive determinism" test_derive_deterministic;
        test "derive reads the whole tag" test_derive_full_input;
        test "derive collision resistance" test_derive_no_birthday_collisions ] ) ]
