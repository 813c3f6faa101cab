open Mbac_heap
open Test_util

(* The whole suite is written against the [Event_queue.S] seam and run
   twice — once per implementation — so the binary heap and the
   calendar queue are held to the identical contract.  (This file
   replaces the old [test_event_heap.ml], which named [Event_heap]
   directly and so never covered [Calendar_queue].) *)

module Make (Q : Event_queue.S) = struct
  (* Error-message prefixes differ per implementation; the contract is
     only that the operation raises [Invalid_argument]. *)
  let expect_invalid label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label

  let test_ordering () =
    let h = Q.create () in
    List.iter
      (fun t -> Q.push h ~time:t (int_of_float t))
      [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
    let order = ref [] in
    let rec drain () =
      match Q.pop h with
      | Some (_, v) ->
          order := v :: !order;
          drain ()
      | None -> ()
    in
    drain ();
    Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (List.rev !order)

  let test_fifo_ties () =
    let h = Q.create () in
    List.iter (fun v -> Q.push h ~time:1.0 v) [ 10; 20; 30 ];
    let v1 = Option.get (Q.pop h) in
    let v2 = Option.get (Q.pop h) in
    let v3 = Option.get (Q.pop h) in
    Alcotest.(check (list int)) "insertion order on ties" [ 10; 20; 30 ]
      [ snd v1; snd v2; snd v3 ]

  let test_empty () =
    let h = Q.create () in
    Alcotest.(check bool) "empty" true (Q.is_empty h);
    Alcotest.(check bool) "pop none" true (Q.pop h = None);
    Alcotest.(check bool) "peek none" true (Q.peek_time h = None);
    expect_invalid "min_time on empty" (fun () -> ignore (Q.min_time h));
    expect_invalid "min_payload on empty" (fun () -> ignore (Q.min_payload h));
    expect_invalid "drop_min on empty" (fun () -> Q.drop_min h)

  let test_peek () =
    let h = Q.create () in
    Q.push h ~time:2.0 1;
    Q.push h ~time:1.0 0;
    Alcotest.(check (option (float 0.0))) "peek" (Some 1.0) (Q.peek_time h);
    Alcotest.(check (float 0.0)) "min_time" 1.0 (Q.min_time h);
    Alcotest.(check int) "min_payload" 0 (Q.min_payload h);
    Alcotest.(check int) "size" 2 (Q.size h)

  let test_accessors_match_pop () =
    (* min_time/min_payload/drop_min are the zero-allocation spelling of
       pop; they must expose the same element. *)
    let h = Q.create () in
    List.iteri (fun i t -> Q.push h ~time:t (100 + i)) [ 3.0; 1.0; 2.0; 1.0 ];
    let rec drain acc =
      if Q.is_empty h then List.rev acc
      else begin
        let t = Q.min_time h in
        let p = Q.min_payload h in
        Q.drop_min h;
        drain ((t, p) :: acc)
      end
    in
    Alcotest.(check (list (pair (float 0.0) int)))
      "drain via accessors"
      [ (1.0, 101); (1.0, 103); (2.0, 102); (3.0, 100) ]
      (drain [])

  let test_copy_independent () =
    let h = Q.create () in
    List.iteri (fun i t -> Q.push h ~time:t i) [ 4.0; 1.0; 1.0; 9.0 ];
    ignore (Q.pop h);
    let c = Q.copy h in
    (* divergent mutation: ties pushed post-copy must break against the
       preserved sequence counter identically on both sides *)
    Q.push h ~time:1.0 100;
    Q.push c ~time:1.0 100;
    let drain q =
      let rec go acc =
        match Q.pop q with Some e -> go (e :: acc) | None -> List.rev acc
      in
      go []
    in
    let a = drain h and b = drain c in
    Alcotest.(check (list (pair (float 0.0) int))) "copy pops identically" a b

  let test_heap_property =
    qcheck ~count:200 "pop yields non-decreasing times"
      QCheck.(list_of_size Gen.(int_range 0 300) (float_range 0.0 1e6))
      (fun times ->
        let h = Q.create () in
        List.iter (fun t -> Q.push h ~time:t 0) times;
        let rec check last =
          match Q.pop h with
          | None -> true
          | Some (t, _) -> t >= last && check t
        in
        check neg_infinity)

  (* Differential model: a sorted association list ordered by
     (time, insertion sequence) — the specification of the queue. *)
  module Model = struct
    type t = (float * int * int) list ref
    (* (time, seq, payload), sorted; seq increases with insertion order *)

    let create () : t * int ref = (ref [], ref 0)

    let push (m, seq) ~time payload =
      let entry = (time, !seq, payload) in
      incr seq;
      (* stable insertion: an equal-time entry goes after existing ones,
         which is exactly the FIFO tie-break *)
      let rec insert = function
        | [] -> [ entry ]
        | ((t, _, _) as hd) :: tl ->
            if time < t then entry :: hd :: tl else hd :: insert tl
      in
      m := insert !m

    let pop (m, _) =
      match !m with
      | [] -> None
      | (t, _, p) :: tl ->
          m := tl;
          Some (t, p)

    let size (m, _) = List.length !m
  end

  let test_differential =
    (* Random interleaving of push/pop/full drains against the
       sorted-list model, with heavily duplicated timestamps so FIFO
       tie-breaking is exercised on every run. *)
    qcheck ~count:300 "random ops match sorted-list model (incl. FIFO, full drains)"
      QCheck.(
        list_of_size Gen.(int_range 0 400) (pair (int_range 0 20) (int_range 0 7)))
      (fun ops ->
        let h = Q.create () in
        let m = Model.create () in
        let ok = ref true in
        let rec drain () =
          let got = Q.pop h in
          let want = Model.pop m in
          if got <> want then ok := false;
          if got <> None && want <> None then drain ()
        in
        List.iteri
          (fun i (k, op) ->
            match op with
            | 0 | 1 | 2 | 3 ->
                (* push with few distinct times -> many ties *)
                let t = float_of_int k *. 0.25 in
                Q.push h ~time:t i;
                Model.push m ~time:t i
            | 4 | 5 ->
                let got = Q.pop h in
                let want = Model.pop m in
                if got <> want then ok := false
            | 6 -> if Q.size h <> Model.size m then ok := false
            | _ ->
                (* rare full drain; the queue is then reused *)
                if k = 0 then drain ())
          ops;
        drain ();
        !ok && Q.is_empty h)

  let test_fifo_duplicate_times =
    (* With heavy timestamp duplication, pops must come back stably
       sorted by (time, insertion index) — exactly List.stable_sort. *)
    qcheck ~count:300 "duplicate timestamps drain in FIFO order"
      QCheck.(list_of_size Gen.(int_range 0 300) (int_range 0 4))
      (fun raw ->
        let times = List.map (fun k -> float_of_int k *. 0.5) raw in
        let h = Q.create () in
        List.iteri (fun i t -> Q.push h ~time:t i) times;
        let expected =
          List.stable_sort
            (fun (t1, _) (t2, _) -> compare t1 t2)
            (List.mapi (fun i t -> (t, i)) times)
        in
        let rec drain acc =
          match Q.pop h with
          | Some (t, payload) -> drain ((t, payload) :: acc)
          | None -> List.rev acc
        in
        drain [] = expected)

  let test_push_pop_interleaved_growth () =
    (* Push enough to force several capacity doublings, interleaved with
       pops, and verify total order at the end. *)
    let h = Q.create () in
    let rng = Mbac_stats.Rng.create ~seed:42 in
    let popped = ref [] in
    for i = 0 to 9_999 do
      Q.push h ~time:(Mbac_stats.Rng.float rng) i;
      if i mod 3 = 0 && not (Q.is_empty h) then begin
        popped := Q.min_time h :: !popped;
        Q.drop_min h
      end
    done;
    let last = ref neg_infinity in
    while not (Q.is_empty h) do
      let t = Q.min_time h in
      Alcotest.(check bool) "non-decreasing tail" true (t >= !last);
      last := t;
      popped := t :: !popped;
      Q.drop_min h
    done;
    Alcotest.(check int) "count" 10_000 (List.length !popped)

  let test_nan_rejected () =
    let h = Q.create () in
    expect_invalid "nan" (fun () -> Q.push h ~time:nan 0)

  let suite name =
    [ ( name,
        [ test "ordering" test_ordering;
          test "FIFO tie-breaking" test_fifo_ties;
          test "empty queue" test_empty;
          test "peek and size" test_peek;
          test "zero-alloc accessors match pop" test_accessors_match_pop;
          test "copy is independent and FIFO-preserving" test_copy_independent;
          test_heap_property;
          test_differential;
          test_fifo_duplicate_times;
          test "growth under interleaved push/pop"
            test_push_pop_interleaved_growth;
          test "NaN rejected" test_nan_rejected ] ) ]
end

module Heap_suite = Make (Event_queue.Heap)
module Calendar_suite = Make (Event_queue.Calendar)

(* Cross-implementation differential: the calendar queue must produce
   byte-for-byte the pop sequence of the binary heap on schedules with
   timestamp collisions and far-future outliers — the two regimes where
   a calendar queue can go wrong (tie order inside a bucket chain,
   overflow-chain migration racing the live window). *)

module H = Event_queue.Heap
module C = Event_queue.Calendar

let run_both_compare ops =
  let h = H.create () and c = C.create () in
  let ok = ref true in
  let check_opt got want = if got <> want then ok := false in
  List.iteri
    (fun i (op, k, far) ->
      match op with
      | 0 | 1 | 2 | 3 | 4 ->
          (* clustered timestamps, with occasional far-future outliers
             that land on the heap leaves / the calendar overflow chain *)
          let t = float_of_int k *. 0.125 in
          let t = if far then (t +. 1.0) *. 1e7 else t in
          H.push h ~time:t i;
          C.push c ~time:t i
      | 5 | 6 | 7 -> check_opt (C.pop c) (H.pop h)
      | 8 ->
          check_opt (C.peek_time c) (H.peek_time h);
          if C.size c <> H.size h then ok := false
      | _ ->
          (* drain deep copies in full; originals continue untouched *)
          let hc = H.copy h and cc = C.copy c in
          let rec go () =
            let got = C.pop cc and want = H.pop hc in
            check_opt got want;
            if got <> None || want <> None then go ()
          in
          go ())
    ops;
  let rec drain () =
    let got = C.pop c and want = H.pop h in
    check_opt got want;
    if got <> None || want <> None then drain ()
  in
  drain ();
  !ok

let test_cross_impl =
  qcheck ~count:300
    "calendar pops = heap pops (collisions, outliers, copies)"
    QCheck.(
      list_of_size
        Gen.(int_range 0 400)
        (triple (int_range 0 9) (int_range 0 24) bool))
    run_both_compare

let test_resize_invariance =
  (* Regime-shifting inter-event gaps force the calendar's bucket width
     to recalibrate (and the wheel to grow/shrink) mid-run; none of it
     may reorder pops relative to the width-oblivious heap. *)
  qcheck ~count:60 "bucket-width resizes never reorder"
    QCheck.(
      list_of_size
        Gen.(int_range 1 6)
        (triple (int_range 0 6) (int_range 1 120) (int_range 0 3)))
    (fun phases ->
      let h = H.create () and c = C.create () in
      let ok = ref true in
      let now = ref 0.0 in
      let payload = ref 0 in
      List.iter
        (fun (scale_exp, count, pop_every) ->
          (* each phase lives on a different timescale: 10^-3 .. 10^3 *)
          let scale = 10.0 ** float_of_int (scale_exp - 3) in
          for j = 1 to count do
            now := !now +. (scale *. float_of_int (1 + (j mod 5)));
            incr payload;
            H.push h ~time:!now !payload;
            C.push c ~time:!now !payload;
            if pop_every > 0 && j mod pop_every = 0 then
              if C.pop c <> H.pop h then ok := false
          done)
        phases;
      let rec drain () =
        let got = C.pop c and want = H.pop h in
        if got <> want then ok := false;
        if got <> None || want <> None then drain ()
      in
      drain ();
      !ok)

let test_recalibration_long_run () =
  (* Hold-model churn long enough to cross several 4096-pop
     recalibration boundaries, through three gap regimes. *)
  let h = H.create () and c = C.create () in
  let rng = Mbac_stats.Rng.create ~seed:7 in
  for i = 0 to 1_999 do
    let t = Mbac_stats.Rng.float rng *. 100.0 in
    H.push h ~time:t i;
    C.push c ~time:t i
  done;
  let mismatches = ref 0 in
  let regime = [| 1e-2; 10.0; 1e-2 |] in
  Array.iter
    (fun scale ->
      for i = 0 to 9_999 do
        let th = H.min_time h and tc = C.min_time c in
        if th <> tc || H.min_payload h <> C.min_payload c then incr mismatches;
        H.drop_min h;
        C.drop_min c;
        let t = th +. (Mbac_stats.Rng.float rng *. scale *. 2000.0) in
        H.push h ~time:t i;
        C.push c ~time:t i
      done)
    regime;
  Alcotest.(check int) "lockstep across regimes" 0 !mismatches;
  let rec drain () =
    let got = C.pop c and want = H.pop h in
    if got <> want then incr mismatches;
    if got <> None || want <> None then drain ()
  in
  drain ();
  Alcotest.(check int) "identical final drain" 0 !mismatches

let suite =
  Heap_suite.suite "event_queue (heap)"
  @ Calendar_suite.suite "event_queue (calendar)"
  @ [ ( "event_queue (differential)",
        [ test_cross_impl;
          test_resize_invariance;
          slow_test "recalibration across gap regimes" test_recalibration_long_run
        ] ) ]
