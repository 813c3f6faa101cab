(* The flight-recorder time series: window delta semantics, labels and
   run/window indices, and the jobs-invariance contract (windows
   recorded by parallel tasks concatenate in submission order, so the
   series is byte-identical for every pool width). *)

open Mbac_telemetry
open Test_util

module J = Json_parse

(* Enable the recorder around [f], with a fresh shard before and after
   so no series state leaks between tests (or into other suites). *)
let with_series ?(interval = 100.0) f =
  Shard.reset_current ();
  Timeseries.set_enabled true;
  Timeseries.set_interval interval;
  Fun.protect
    ~finally:(fun () ->
      Timeseries.set_enabled false;
      Timeseries.set_interval 100.0;
      Shard.reset_current ())
    f

let parse_lines s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match J.parse l with
         | Ok v -> v
         | Error e -> Alcotest.failf "unparseable series line %S: %s" l e)

let field name conv v =
  match Option.bind (J.member name v) conv with
  | Some x -> x
  | None -> Alcotest.failf "missing or mistyped field %S" name

let int_f name v = field name J.to_int v
let str_f name v = field name J.to_string v
let obj_f name v = field name J.to_obj v

let num_entry obj name =
  match List.assoc_opt name obj with
  | Some e -> J.to_float e
  | None -> None

(* The metrics these tests record. *)
let tsu_c = Metrics.Handle.counter "tsu_c"
let tsu_s = Metrics.Handle.sum "tsu_s"
let tsu_g = Metrics.Handle.gauge "tsu_g"
let tsu_q = Metrics.Handle.qhist "tsu_q"
let tsu_off_c = Metrics.Handle.counter "tsu_off_c"
let tsu_par_c = Metrics.Handle.counter "tsu_par_c"
let tsu_par_q = Metrics.Handle.qhist "tsu_par_q"

let test_window_deltas () =
  with_series (fun () ->
      Timeseries.start_run ~label:"r";
      Metrics.Handle.inc ~by:3 tsu_c;
      Metrics.Handle.add tsu_s 1.5;
      Metrics.Handle.set_gauge tsu_g 2.0;
      Metrics.Handle.observe_q tsu_q 4.0;
      Timeseries.emit_window ~t:10.0;
      Metrics.Handle.inc ~by:2 tsu_c;
      Metrics.Handle.set_gauge tsu_g 7.0;
      Timeseries.emit_window ~t:20.0;
      match parse_lines (Timeseries.contents ()) with
      | [ w0; w1 ] ->
          Alcotest.(check string) "kind" "window" (str_f "kind" w0);
          Alcotest.(check string) "label" "r" (str_f "label" w0);
          Alcotest.(check int) "run" 0 (int_f "run" w0);
          Alcotest.(check int) "first window index" 0 (int_f "window" w0);
          Alcotest.(check int) "t is the window end" 10 (int_f "t" w0);
          Alcotest.(check (option int)) "counter delta" (Some 3)
            (Option.bind (num_entry (obj_f "counters" w0) "tsu_c")
               (fun x -> Some (int_of_float x)));
          check_close "sum delta" 1.5
            (Option.get (num_entry (obj_f "sums" w0) "tsu_s"));
          check_close "gauge current value" 2.0
            (Option.get (num_entry (obj_f "gauges" w0) "tsu_g"));
          (match List.assoc_opt "tsu_q" (obj_f "histograms" w0) with
          | Some h ->
              Alcotest.(check string) "histogram delta kind"
                "quantile_histogram" (str_f "kind" h);
              Alcotest.(check int) "histogram count delta" 1 (int_f "count" h)
          | None -> Alcotest.fail "first window misses the histogram delta");
          (* second window: only what changed since the boundary *)
          Alcotest.(check int) "window index advances" 1 (int_f "window" w1);
          Alcotest.(check (option int)) "counter delta, not total" (Some 2)
            (Option.bind (num_entry (obj_f "counters" w1) "tsu_c")
               (fun x -> Some (int_of_float x)));
          Alcotest.(check bool) "zero-delta sum omitted" true
            (num_entry (obj_f "sums" w1) "tsu_s" = None);
          check_close "gauge tracks the current value" 7.0
            (Option.get (num_entry (obj_f "gauges" w1) "tsu_g"));
          Alcotest.(check bool) "unchanged histogram omitted" true
            (List.assoc_opt "tsu_q" (obj_f "histograms" w1) = None)
      | lines -> Alcotest.failf "expected 2 window lines, got %d"
                   (List.length lines))

let test_label_override_and_runs () =
  with_series (fun () ->
      Timeseries.set_label "cell-tag";
      Timeseries.start_run ~label:"controller-name";
      Timeseries.emit_window ~t:5.0;
      Timeseries.start_run ~label:"controller-name";
      Timeseries.emit_window ~t:5.0;
      match parse_lines (Timeseries.contents ()) with
      | [ w0; w1 ] ->
          Alcotest.(check string) "override replaces the run label"
            "cell-tag" (str_f "label" w0);
          Alcotest.(check int) "second run bumps the run index" 1
            (int_f "run" w1);
          Alcotest.(check int) "window index resets per run" 0
            (int_f "window" w1)
      | lines -> Alcotest.failf "expected 2 window lines, got %d"
                   (List.length lines))

let test_empty_window_still_renders () =
  with_series (fun () ->
      (* no start_run, no activity: an implicit run 0 and an empty
         window line documenting that nothing happened *)
      Timeseries.emit_window ~t:1.0;
      match parse_lines (Timeseries.contents ()) with
      | [ w ] ->
          Alcotest.(check int) "implicit run 0" 0 (int_f "run" w);
          Alcotest.(check bool) "no deltas" true
            (obj_f "counters" w = [] && obj_f "sums" w = []
            && obj_f "histograms" w = [])
      | lines -> Alcotest.failf "expected 1 window line, got %d"
                   (List.length lines))

let test_disabled_is_inert () =
  Shard.reset_current ();
  Timeseries.start_run ~label:"ignored";
  Metrics.Handle.inc tsu_off_c;
  Timeseries.emit_window ~t:1.0;
  Alcotest.(check string) "nothing recorded when disabled" ""
    (Timeseries.contents ());
  Shard.reset_current ()

let test_interval_validation () =
  List.iter
    (fun bad ->
      match Timeseries.set_interval bad with
      | () -> Alcotest.failf "interval %g accepted" bad
      | exception Invalid_argument _ -> ())
    [ 0.0; -1.0; nan; infinity ]

(* The determinism contract: whatever the pool width, per-task windows
   concatenate in submission order, so the recorded series is
   byte-identical to the serial one. *)
let test_jobs_invariant_series_qcheck =
  qcheck ~count:30 "series byte-identical for every pool width"
    QCheck.(pair (1 -- 10) (1 -- 6))
    (fun (n_tasks, jobs) ->
      let tasks =
        List.init n_tasks (fun i () ->
            Timeseries.start_run ~label:(Printf.sprintf "task%d" i);
            Metrics.Handle.inc ~by:(i + 1) tsu_par_c;
            Metrics.Handle.observe_q tsu_par_q (float_of_int (i + 1));
            Timeseries.emit_window ~t:(float_of_int (i + 1));
            Metrics.Handle.inc ~by:1 tsu_par_c;
            Timeseries.emit_window ~t:(float_of_int (i + 2)))
      in
      let run jobs =
        with_series (fun () ->
            ignore (Mbac_sim.Parallel.run_tasks ~jobs tasks);
            Timeseries.contents ())
      in
      String.equal (run 1) (run jobs))

let suite =
  [ ( "timeseries",
      [ test "window deltas" test_window_deltas;
        test "label override and run indices" test_label_override_and_runs;
        test "empty window still renders" test_empty_window_still_renders;
        test "disabled recorder is inert" test_disabled_is_inert;
        test "interval validation" test_interval_validation;
        test_jobs_invariant_series_qcheck ] ) ]
