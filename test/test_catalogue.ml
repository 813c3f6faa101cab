(* Metric-catalogue drift test: OBSERVABILITY.md's "Metric catalogue"
   tables are the documented contract for every metric name and kind.
   This test provokes every instrumented code path with tiny smoke runs,
   snapshots the registry, and asserts the two sets match exactly — a
   new metric without a catalogue row, a catalogue row whose metric is
   gone, or a kind change all fail with a diff. *)

open Mbac_telemetry
open Test_util

(* ---------- the documented side: parse the catalogue tables ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Rows look like
     | `name` | counter | meaning |
     | `a` / `b` | sum | meaning |
   with kinds like "histogram [0, 20), 40 bins" — only the leading kind
   word(s) are significant. *)
let parse_catalogue md =
  let lines = String.split_on_char '\n' md in
  let in_section = ref false in
  let rows = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      if String.length line >= 3 && String.sub line 0 3 = "## " then
        in_section := line = "## Metric catalogue"
      else if !in_section && String.length line >= 3
              && String.sub line 0 3 = "| `" then begin
        match String.split_on_char '|' line with
        | _ :: names_cell :: kind_cell :: _ ->
            let kind = String.trim kind_cell in
            let names =
              String.split_on_char '/' names_cell
              |> List.map String.trim
              |> List.filter_map (fun token ->
                     let n = String.length token in
                     if n >= 2 && token.[0] = '`' && token.[n - 1] = '`' then
                       Some (String.sub token 1 (n - 2))
                     else None)
            in
            List.iter (fun name -> rows := (name, kind) :: !rows) names
        | _ -> ()
      end)
    lines;
  List.rev !rows

(* ---------- the live side: provoke every instrumented path ---------- *)

let make_source rng ~start =
  Mbac_traffic.Rcbr.create rng
    { Mbac_traffic.Rcbr.mu = 1.0; sigma = 0.3; t_c = 1.0 }
    ~start

(* A deliberately overloaded link (peak-rate controller pins ~4 flows of
   mean rate 1 against capacity 5), so overflow episodes — and with a
   tiny buffer, buffer-loss episodes — occur within a few hundred
   events. *)
let overloaded_cfg ~link =
  { (Mbac_sim.Continuous_load.default_config ~capacity:5.0
       ~holding_time_mean:10.0 ~target_p_q:0.1)
    with
    Mbac_sim.Continuous_load.link;
    warmup = 2.0;
    batch_length = 4.0;
    min_batches = 4;
    check_every_events = max_int;
    max_time = 200.0;
    max_events = 20_000 }

let run_continuous ~link ~seed =
  let rng = Mbac_stats.Rng.create ~seed in
  ignore
    (Mbac_sim.Continuous_load.run rng (overloaded_cfg ~link)
       ~controller:(Mbac.Controller.peak_rate ~capacity:5.0 ~peak:1.15)
       ~make_source)

let run_impulsive ~seed =
  let rng = Mbac_stats.Rng.create ~seed in
  ignore
    (Mbac_sim.Impulsive_driver.m0_samples rng ~replications:3 ~n_offered:20
       ~capacity:15.0 ~alpha_ce:1.0 ~make_source);
  ignore
    (Mbac_sim.Impulsive_driver.steady_state_overflow rng ~replications:2
       ~n_offered:20 ~capacity:15.0 ~alpha_ce:1.0 ~decorrelate_time:1.0
       ~samples_per_replication:4 ~sample_spacing:0.5 ~make_source)

let run_parallel_paths () =
  (* a skipped task needs a failing sibling; the pool re-raises the
     failure after the join, where the counters are recorded *)
  match
    Mbac_sim.Parallel.run_tasks ~jobs:1
      [ (fun () -> failwith "catalogue-smoke"); (fun () -> ()) ]
  with
  | _ -> Alcotest.fail "failing task did not propagate"
  | exception Failure _ -> ()

(* The splitting smoke reuses test_splitting's known-quick system: 20
   peak-rate-pinned RCBR flows, capacity ~2.33 sd out. *)
let splitting_sim_cfg =
  { (Mbac_sim.Continuous_load.default_config ~capacity:23.13
       ~holding_time_mean:50.0 ~target_p_q:1e-2)
    with
    Mbac_sim.Continuous_load.warmup = 20.0;
    batch_length = 20.0;
    check_every_events = max_int }

let run_splitting ~seed =
  let controller () = Mbac.Controller.peak_rate ~capacity:23.13 ~peak:1.15 in
  let cfg =
    { (Mbac_sim.Splitting.default_config ~pilot_time:300.0) with
      Mbac_sim.Splitting.levels = 2;
      trials_per_level = 64;
      calibration_time = 30.0 }
  in
  ignore
    (Mbac_sim.Splitting.run ~seed cfg splitting_sim_cfg
       ~controller:(controller ()) ~make_source);
  (* a second run whose clone trials are cut off immediately, to
     register the truncation counter *)
  let truncating =
    { cfg with Mbac_sim.Splitting.max_trial_events = 1; trials_per_level = 8 }
  in
  ignore
    (Mbac_sim.Splitting.run ~seed:(seed + 1) truncating splitting_sim_cfg
       ~controller:(controller ()) ~make_source)

(* A tiny two-shard network run: registers every net_* total, including
   the exchange counters (the transit route crosses both shards). *)
let run_network ~seed =
  let topology =
    Mbac_net.Topology.line ~links:2 ~capacity:5.0 ~rate:0.4
  in
  let cfg =
    { (Mbac_net.Network.default_config ~topology ~holding_time_mean:10.0
         ~target_p_q:0.1)
      with
      Mbac_net.Network.shards = 2;
      warmup = 2.0;
      batch_length = 4.0;
      max_events = 20_000 }
  in
  ignore
    (Mbac_net.Network.run ~jobs:1 ~seed cfg
       ~make_controller:(fun ~link:_ ~capacity ->
         Mbac.Controller.peak_rate ~capacity ~peak:1.15)
       ~make_source)

(* One tiny in-process serving session touching every serve_* metric:
   connect, a decide that admits and one that rejects (admit/reject
   counters plus the latency histogram), accounting with measure_every=1
   (measurement updates and the flow/load gauges). *)
let run_serve_paths () =
  let engine =
    Mbac_serve.Engine.create
      { Mbac_serve.Engine.capacity = 10.0;
        criteria = [ Mbac_serve.Engine.Gaussian { cname = "ce"; p_ce = 0.01 } ];
        estimator = Mbac.Estimator.memoryless ();
        measure_every = 1 }
  in
  let client = Mbac_serve.Client.inproc engine in
  let rpc req = ignore (Mbac_serve.Client.rpc client req) in
  rpc (Mbac_serve.Protocol.Decide { criterion = 0; load = 1.0; now = 0.0 });
  rpc (Mbac_serve.Protocol.Add { load = 1.0; now = 0.0 });
  rpc (Mbac_serve.Protocol.Decide { criterion = 0; load = 100.0; now = 1.0 });
  rpc (Mbac_serve.Protocol.Log_decision { criterion = 0; admit = false });
  rpc (Mbac_serve.Protocol.Subtract { load = 1.0; now = 2.0 });
  rpc Mbac_serve.Protocol.Stats;
  Mbac_serve.Client.close client

let registered_metrics () =
  Shard.reset_current ();
  (* window gauges only exist on --series-out runs *)
  Timeseries.set_enabled true;
  Timeseries.set_interval 50.0;
  Fun.protect
    ~finally:(fun () ->
      Timeseries.set_enabled false;
      Timeseries.set_interval 100.0;
      Shard.reset_current ())
    (fun () ->
      run_continuous ~link:`Bufferless ~seed:42;
      run_continuous ~link:(`Buffered 0.2) ~seed:43;
      run_impulsive ~seed:44;
      run_parallel_paths ();
      run_splitting ~seed:45;
      run_serve_paths ();
      run_network ~seed:46;
      List.map
        (fun (name, value) ->
          let kind =
            match value with
            | Snapshot.Counter _ -> "counter"
            | Snapshot.Sum _ -> "sum"
            | Snapshot.Gauge _ -> "gauge"
            | Snapshot.Histogram h -> (
                match Histogram.layout h with
                | Linear _ -> "histogram"
                | Log _ -> "quantile histogram")
          in
          (name, kind))
        (Snapshot.bindings (Snapshot.current ())))

(* ---------- the comparison ---------- *)

let kind_matches ~documented ~actual =
  (* the catalogue may append shape detail ("histogram [0, 20), 40
     bins"); require the documented kind to start with the actual kind
     word and not merely contain it *)
  String.length documented >= String.length actual
  && String.sub documented 0 (String.length actual) = actual
  && (String.length documented = String.length actual
     || documented.[String.length actual] = ' ')

let test_catalogue_matches_registry () =
  let documented = parse_catalogue (read_file "../OBSERVABILITY.md") in
  Alcotest.(check bool) "catalogue tables parsed" true
    (List.length documented > 20);
  let actual = registered_metrics () in
  let diff = Buffer.create 256 in
  List.iter
    (fun (name, kind) ->
      match List.assoc_opt name documented with
      | None ->
          Buffer.add_string diff
            (Printf.sprintf
               "  metric %S (%s) is registered but has no catalogue row\n"
               name kind)
      | Some doc_kind ->
          if not (kind_matches ~documented:doc_kind ~actual:kind) then
            Buffer.add_string diff
              (Printf.sprintf
                 "  metric %S: catalogue says %S, registry says %S\n" name
                 doc_kind kind))
    actual;
  List.iter
    (fun (name, kind) ->
      if not (List.mem_assoc name actual) then
        Buffer.add_string diff
          (Printf.sprintf
             "  catalogue row %S (%s) matches no registered metric\n" name
             kind))
    documented;
  if Buffer.length diff > 0 then
    Alcotest.failf
      "OBSERVABILITY.md metric catalogue is out of sync with the registry:\n%s"
      (Buffer.contents diff)

let suite =
  [ ( "catalogue",
      [ slow_test "OBSERVABILITY.md catalogue matches the registry"
          test_catalogue_matches_registry ] ) ]
