(* The deterministic multicore replication engine: submission-order
   results, jobs-invariance, exception propagation. *)

open Mbac_sim
open Test_util

(* The pool clamps its width to the core count by default; raise the cap
   so these tests exercise real multi-domain schedules (and the width
   assertions below hold) even on a 1-core CI runner.  Must happen
   before any [domain_cap] call. *)
let () = Unix.putenv "MBAC_DOMAIN_CAP" "8"

let test_ordering () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results in submission order"
    (List.map (fun x -> x * x) xs)
    (Parallel.map ~jobs:4 (fun x -> x * x) xs)

let test_empty_and_small () =
  Alcotest.(check (list int)) "empty" [] (Parallel.map ~jobs:4 Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ]
    (Parallel.map ~jobs:4 Fun.id [ 7 ]);
  (* more workers than tasks *)
  Alcotest.(check (list int)) "jobs > tasks" [ 1; 2 ]
    (Parallel.map ~jobs:16 Fun.id [ 1; 2 ])

let test_jobs_invariance () =
  (* Each task derives its stream up front from (seed, tag): any pool
     width must produce bit-identical outputs. *)
  let sweep jobs =
    Parallel.map ~jobs
      (fun i ->
        let rng =
          Mbac_stats.Rng.derive ~seed:99 ~tag:(Printf.sprintf "cell-%d" i)
        in
        let acc = ref 0L in
        for _ = 1 to 1000 do
          acc := Int64.add !acc (Mbac_stats.Rng.bits64 rng)
        done;
        !acc)
      (List.init 32 Fun.id)
  in
  let reference = sweep 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int64))
        (Printf.sprintf "jobs=%d matches jobs=1" jobs)
        reference (sweep jobs))
    [ 2; 3; 8 ]

let test_exception_propagation () =
  Alcotest.check_raises "first failure re-raised" (Failure "task-3") (fun () ->
      ignore
        (Parallel.map ~jobs:2
           (fun i -> if i >= 3 then failwith (Printf.sprintf "task-%d" i))
           (List.init 8 Fun.id)));
  (* the serial path propagates too *)
  Alcotest.check_raises "serial failure" (Failure "task-0") (fun () ->
      ignore (Parallel.map ~jobs:1 (fun _ -> failwith "task-0") [ 0 ]))

let test_invalid_jobs () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Parallel.run_tasks: jobs < 1") (fun () ->
      ignore (Parallel.run_tasks ~jobs:0 [ (fun () -> ()) ]))

let test_actually_parallel () =
  (* Workers really do run in other domains: with 4 workers and 4 tasks
     each observing its own domain, at least one task must land off the
     submitting domain when domains are available — but on a 1-core box
     the pool may legitimately be narrower, so just check the pool
     computes the right thing under contention. *)
  let n = 64 in
  let results =
    Parallel.map ~jobs:4
      (fun i ->
        (* a little work so tasks overlap *)
        let rng = Mbac_stats.Rng.create ~seed:i in
        let s = ref 0.0 in
        for _ = 1 to 10_000 do
          s := !s +. Mbac_stats.Rng.float rng
        done;
        (i, Float.round !s)
      )
      (List.init n Fun.id)
  in
  Alcotest.(check int) "all tasks ran" n (List.length results);
  List.iteri
    (fun i (j, _) -> Alcotest.(check int) "order preserved" i j)
    results

let test_effective_jobs () =
  Alcotest.(check int) "clamped to task count" 3
    (Parallel.effective_jobs ~jobs:16 3);
  Alcotest.(check int) "clamped to cap"
    (Parallel.domain_cap ())
    (Parallel.effective_jobs ~jobs:1000 1000);
  Alcotest.(check int) "zero tasks" 0 (Parallel.effective_jobs ~jobs:4 0);
  Alcotest.(check int) "explicit width kept" 2
    (Parallel.effective_jobs ~jobs:2 100);
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Parallel.run_tasks: jobs < 1") (fun () ->
      ignore (Parallel.effective_jobs ~jobs:0 4));
  Alcotest.(check bool) "default within cap" true
    (Parallel.default_jobs () <= Parallel.domain_cap ())

let counter_value name =
  match
    Mbac_telemetry.Shard.find_metric (Mbac_telemetry.Shard.current ()) name
  with
  | Some (Mbac_telemetry.Metric.Counter r) -> !r
  | Some _ -> Alcotest.fail (name ^ ": not a counter")
  | None -> 0

(* First-failure cancellation on the serial path: tasks submitted after
   the first failure never start. *)
let test_cancellation_serial () =
  let started = Atomic.make 0 in
  (try
     ignore
       (Parallel.map ~jobs:1
          (fun i ->
            Atomic.incr started;
            if i = 2 then failwith "boom")
          (List.init 10 Fun.id));
     Alcotest.fail "expected failure"
   with Failure msg when msg = "boom" -> ());
  Alcotest.(check int) "tasks after the failure skipped" 3
    (Atomic.get started)

(* The re-raised exception is the submission-order-first failure at
   every pool width and chunk size, even though later tasks may fail
   first on the wall clock and unclaimed tasks are skipped. *)
let test_first_failure_deterministic =
  qcheck ~count:60 "first submission-order failure re-raised at any width"
    QCheck.(
      triple (int_range 1 40)
        (pair (int_range 1 8) (int_range 1 8))
        (int_range 0 1000))
    (fun (n, (jobs, chunk), salt) ->
      (* every task whose hash bit is set fails; expected = lowest such *)
      let fails i = (Hashtbl.hash (salt, i) land 3) = 0 in
      let expected =
        List.find_opt fails (List.init n Fun.id)
      in
      let run () =
        ignore
          (Parallel.map ~jobs ~chunk
             (fun i -> if fails i then failwith (string_of_int i) else i)
             (List.init n Fun.id))
      in
      match expected with
      | None ->
          run ();
          true
      | Some f -> (
          try
            run ();
            false
          with Failure msg -> int_of_string msg = f))

(* Partial telemetry from executed tasks — including the failing one —
   is merged; skipped tasks contribute nothing and are counted. *)
let m_cancel_probe =
  Mbac_telemetry.Metrics.Handle.counter "test_cancel_probe_total"

let test_partial_telemetry_on_failure () =
  Mbac_telemetry.Shard.reset_current ();
  (try
     ignore
       (Parallel.map ~jobs:1
          (fun i ->
            Mbac_telemetry.Metrics.Handle.inc m_cancel_probe;
            if i = 4 then failwith "stop")
          (List.init 12 Fun.id));
     Alcotest.fail "expected failure"
   with Failure msg when msg = "stop" -> ());
  Alcotest.(check int) "executed tasks' metrics merged" 5
    (counter_value "test_cancel_probe_total");
  Alcotest.(check int) "executed tasks counted" 5
    (counter_value "parallel_tasks_total");
  Alcotest.(check int) "skipped tasks counted" 7
    (counter_value "parallel_tasks_skipped_total");
  Mbac_telemetry.Shard.reset_current ()

(* Results (and, on success, merged telemetry) are invariant in both the
   pool width and the chunk size. *)
let test_chunk_invariance =
  qcheck ~count:40 "chunked submission is jobs- and chunk-invariant"
    QCheck.(pair (int_range 0 50) (pair (int_range 1 6) (int_range 1 9)))
    (fun (n, (jobs, chunk)) ->
      let cells = List.init n Fun.id in
      let f i =
        let rng =
          Mbac_stats.Rng.derive ~seed:5 ~tag:(Printf.sprintf "chunk-%d" i)
        in
        Mbac_stats.Rng.bits64 rng
      in
      let reference = List.map f cells in
      reference = Parallel.map ~jobs ~chunk f cells)

let suite =
  [ ( "parallel",
      [ test "submission order" test_ordering;
        test "edge sizes" test_empty_and_small;
        test "jobs invariance" test_jobs_invariance;
        test "exception propagation" test_exception_propagation;
        test "invalid jobs" test_invalid_jobs;
        test "contention" test_actually_parallel;
        test "effective width" test_effective_jobs;
        test "serial cancellation" test_cancellation_serial;
        test_first_failure_deterministic;
        test "partial telemetry on failure" test_partial_telemetry_on_failure;
        test_chunk_invariance ] ) ]
