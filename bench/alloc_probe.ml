(* Per-component minor-allocation probe for the simulator hot path.

   Prints minor words per operation for each building block of the event
   loop, so a regression in any one of them is attributable without
   re-profiling the whole simulator.  Loop bodies accumulate results in
   a [Float.Array] slot (unboxed store) rather than a [float ref] (whose
   store would box 2 words per iteration and be charged to the component
   under test). *)

let facc = Float.Array.make 4 0.0

let[@inline] keep_float i v =
  Float.Array.unsafe_set facc i (Float.Array.unsafe_get facc i +. v)

(* Minor words come from [Gc.minor_words], not [Gc.counters]: on OCaml
   5.1 the latter's minor count can trail the allocation pointer by up
   to a minor heap (two calls around 30,000 allocated words, with no
   collection between them, differ by 3,751), which is up to ±1.3
   words/event on a 200,000-event row. *)
let counters () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), promoted, major)

let per ~ops (minor0, promoted0, major0) (minor1, promoted1, major1) =
  let per x0 x1 = (x1 -. x0) /. float_of_int ops in
  (per minor0 minor1, per promoted0 promoted1, per major0 major1)

let words_per_op ~ops f =
  (* warm up: fill caches, trigger table growth *)
  f (ops / 10);
  let c0 = counters () in
  f ops;
  per ~ops c0 (counters ())

(* Promoted words survive a minor collection (long-lived allocation:
   growing tables, retained closures); major words are allocated directly
   on the major heap (big arrays).  Both cost far more than minor words,
   so a hot-path regression there matters even at small counts. *)
let report name (minor, promoted, major) =
  Printf.printf "  %-34s %8.2f minor %9.4f promoted %9.4f major\n%!" name
    minor promoted major

let () =
  let ops = 1_000_000 in
  Printf.printf "words per operation (%d ops each):\n%!" ops;

  (* RNG core *)
  let rng = Mbac_stats.Rng.create ~seed:1 in
  report "Rng.float"
    (words_per_op ~ops (fun n ->
         for _ = 1 to n do
           keep_float 0 (Mbac_stats.Rng.float rng)
         done));

  report "Sample.exponential"
    (words_per_op ~ops (fun n ->
         for _ = 1 to n do
           keep_float 0 (Mbac_stats.Sample.exponential rng ~mean:1.0)
         done));

  report "Sample.gaussian_truncated_nonneg"
    (words_per_op ~ops (fun n ->
         for _ = 1 to n do
           keep_float 0
             (Mbac_stats.Sample.gaussian_truncated_nonneg rng ~mu:1.0
                ~sigma:0.3)
         done));

  (* traffic sources, per model: the words one flow's source costs to
     build (what a link holds per flow, plus the build's transient
     draws), to fire one change, and to copy (rare-event splitting
     copies every source at every trial).  The modulated source wraps
     an RCBR one, built with it; its schedule is shared. *)
  let rcbr = Mbac_traffic.Rcbr.default_params ~mu:1.0 in
  let onoff = { Mbac_traffic.Onoff.peak = 1.1; mean_on = 0.9; mean_off = 0.1 } in
  let ou = Mbac_traffic.Ou_source.default_params ~mu:1.0 in
  let trace =
    Mbac_traffic.Trace.create ~dt:1.0
      (Array.init 4096 (fun i -> 1.0 +. float_of_int (i / 3 mod 5)))
  in
  let schedule =
    Mbac_traffic.Modulated.schedule
      (Array.init 10_000 (fun i ->
           (float_of_int i *. 1000.0, if i mod 2 = 0 then 1.0 else 1.1)))
  in
  let models =
    [ ("rcbr", fun rng ~start -> Mbac_traffic.Rcbr.create rng rcbr ~start);
      ("onoff", fun rng ~start -> Mbac_traffic.Onoff.create rng onoff ~start);
      ("ou", fun rng ~start -> Mbac_traffic.Ou_source.create rng ou ~start);
      ( "trace",
        fun rng ~start -> Mbac_traffic.Trace_source.create rng trace ~start );
      ( "modulated",
        fun rng ~start ->
          Mbac_traffic.Modulated.create ~start schedule
            (Mbac_traffic.Rcbr.create rng rcbr ~start) ) ]
  in
  List.iter
    (fun (name, make) ->
      let keep = Array.make 1 (make rng ~start:0.0) in
      report
        (Printf.sprintf "Source create (%s)" name)
        (words_per_op ~ops:100_000 (fun n ->
             for _ = 1 to n do
               keep.(0) <- make rng ~start:0.0
             done));
      let src = make rng ~start:0.0 in
      report
        (Printf.sprintf "Source.fire (%s)" name)
        (words_per_op ~ops (fun n ->
             for _ = 1 to n do
               let t = Mbac_traffic.Source.next_change src in
               Mbac_traffic.Source.fire src ~now:t;
               keep_float 1 t
             done));
      report
        (Printf.sprintf "Source.copy (%s)" name)
        (words_per_op ~ops:100_000 (fun n ->
             for _ = 1 to n do
               keep.(0) <- Mbac_traffic.Source.copy src rng
             done)))
    models;

  (* event heap push/pop cycle at steady size *)
  let heap = Mbac_heap.Event_heap.create () in
  for i = 1 to 200 do
    Mbac_heap.Event_heap.push heap ~time:(float_of_int i) i
  done;
  report "Event_heap push+drop cycle"
    (words_per_op ~ops (fun n ->
         for _ = 1 to n do
           let tm = Mbac_heap.Event_heap.min_time heap in
           Mbac_heap.Event_heap.drop_min heap;
           Mbac_heap.Event_heap.push heap ~time:(tm +. 200.0) 7
         done));

  (* calendar queue, same hold-style cycle: steady state must be
     allocation-free at both a sim-sized and a large pending population
     (resize/recalibration allocates only a new heads array, and only
     when the population or spacing actually moves). *)
  let cal = Mbac_sim.Calendar_queue.create () in
  for i = 1 to 200 do
    Mbac_sim.Calendar_queue.push cal ~time:(float_of_int i) i
  done;
  report "Calendar_queue push+drop cycle"
    (words_per_op ~ops (fun n ->
         for _ = 1 to n do
           let tm = Mbac_sim.Calendar_queue.min_time cal in
           Mbac_sim.Calendar_queue.drop_min cal;
           Mbac_sim.Calendar_queue.push cal ~time:(tm +. 200.0) 7
         done));
  let cal_big = Mbac_sim.Calendar_queue.create () in
  for i = 1 to 100_000 do
    Mbac_sim.Calendar_queue.push cal_big ~time:(float_of_int i) i
  done;
  report "Calendar_queue push+drop (100k pending)"
    (words_per_op ~ops (fun n ->
         for _ = 1 to n do
           let tm = Mbac_sim.Calendar_queue.min_time cal_big in
           Mbac_sim.Calendar_queue.drop_min cal_big;
           Mbac_sim.Calendar_queue.push cal_big ~time:(tm +. 100_000.0) 7
         done));

  (* cross-shard exchange: a steady window cycle of sends followed by a
     deliver (the outboxes concatenated in source order) on each
     destination.  Outboxes and inbox grow once and are then reused,
     and [send] is inlined, so its float arguments stay unboxed: the
     steady state must be allocation-free per exchanged message. *)
  let ex = Mbac_net.Exchange.create ~shards:4 in
  let ex_batch = 64 in
  report "Exchange send+deliver (per message)"
    (words_per_op ~ops:1_000_000 (fun n ->
         for w = 1 to n / ex_batch do
           let time = float_of_int w in
           for m = 0 to ex_batch - 1 do
             Mbac_net.Exchange.send ex ~src:(m land 3) ~dst:(m lsr 4)
               ~time ~kind:0 ~link:m ~hop:1 ~route:m ~seq:m ~islot:m
               ~igen:0 ~rate:1.0 ~t_end:(time +. 10.0)
           done;
           for dst = 0 to 3 do
             let count = Mbac_net.Exchange.deliver ex ~dst in
             for i = 0 to count - 1 do
               keep_float 3 (Mbac_net.Exchange.in_time ex i)
             done
           done
         done));

  (* observation construction (the pointer store into [keep] does not
     allocate; the record itself is the 5 words under test) *)
  let obs100 =
    Mbac.Observation.make ~now:0.0 ~n:100 ~sum_rate:100.0 ~sum_sq:110.0
  in
  let keep = Array.make 1 obs100 in
  report "Observation.make"
    (words_per_op ~ops (fun n ->
         for i = 1 to n do
           keep.(0) <-
             Mbac.Observation.make ~now:(float_of_int i) ~n:100
               ~sum_rate:100.0 ~sum_sq:110.0
         done));

  (* estimator observe / current *)
  let est = Mbac.Estimator.ewma ~t_m:100.0 in
  (* the observation refreshed in place, as its owners (the link kernel,
     the serving engine) do *)
  let obs = Mbac.Observation.copy obs100 in
  report "Estimator.observe (ewma)"
    (words_per_op ~ops (fun n ->
         for i = 1 to n do
           obs.now <- float_of_int i;
           Mbac.Estimator.observe est obs
         done));
  let macc = ref 0 in
  report "Estimator.current (ewma)"
    (words_per_op ~ops (fun n ->
         for _ = 1 to n do
           match Mbac.Estimator.current est with
           | Some e -> macc := !macc + int_of_float e.Mbac.Estimator.mu_hat
           | None -> ()
         done));

  (* controller decision *)
  let ctrl =
    Mbac.Controller.with_memory ~capacity:100.0 ~p_ce:0.05 ~t_m:100.0
  in
  Mbac.Controller.observe ctrl obs100;
  report "Controller.admissible"
    (words_per_op ~ops (fun n ->
         for _ = 1 to n do
           macc := !macc + Mbac.Controller.admissible ctrl obs100
         done));

  (* measurement recording *)
  let meas =
    Mbac_sim.Measurement.create ~sample_spacing:20.0 ~capacity:100.0
      ~warmup:0.0 ~batch_length:20.0 ()
  in
  report "Measurement.record"
    (words_per_op ~ops (fun n ->
         for _ = 1 to n do
           let t0 = Float.Array.unsafe_get facc 2 in
           Mbac_sim.Measurement.record meas ~t0 ~t1:(t0 +. 0.01) ~load:99.0;
           Float.Array.unsafe_set facc 2 (t0 +. 0.01)
         done));

  (* link kernel: one flow's admission and release, and one
     renegotiation with the load segment before it.  The rates and
     times are computed, not constants, so a kernel function left out
     of line would show here as a boxed float argument. *)
  let link =
    Mbac_sim.Link.create ~telemetry:false ~capacity:100.0 ~warmup:0.0
      ~batch_length:20.0 ~max_flows:max_int
      (Mbac.Controller.with_memory ~capacity:100.0 ~p_ce:1e-3 ~t_m:100.0)
  in
  for _ = 1 to 90 do
    ignore
      (Mbac_sim.Link.admit link ~key:0
         ~rate:(0.5 +. Mbac_stats.Rng.float rng)
         ~source:Mbac_sim.Link.no_source)
  done;
  report "Link admit+release (per cycle)"
    (words_per_op ~ops (fun n ->
         for _ = 1 to n do
           ignore (Mbac_sim.Link.observe link);
           let slot =
             Mbac_sim.Link.admit link ~key:0
               ~rate:(0.5 +. Mbac_stats.Rng.float rng)
               ~source:Mbac_sim.Link.no_source
           in
           ignore (Mbac_sim.Link.release link slot)
         done));
  report "Link set_rate+record (per event)"
    (words_per_op ~ops (fun n ->
         for i = 1 to n do
           Mbac_sim.Link.record link ~t1:(link.Mbac_sim.Link.hot.now +. 0.01);
           ignore
             (Mbac_sim.Link.set_rate link (i mod 90)
                (0.5 +. Mbac_stats.Rng.float rng))
         done));

  (* welford + batch means directly *)
  let w = Mbac_stats.Welford.Weighted.create () in
  report "Welford.Weighted.add"
    (words_per_op ~ops (fun n ->
         for _ = 1 to n do
           Mbac_stats.Welford.Weighted.add w ~weight:0.01 99.0
         done));
  let bm = Mbac_stats.Batch_means.create ~batch_length:20.0 in
  report "Batch_means.add"
    (words_per_op ~ops (fun n ->
         for _ = 1 to n do
           Mbac_stats.Batch_means.add bm ~weight:0.01 1.0
         done));

  (* telemetry handle update *)
  let h = Mbac_telemetry.Metrics.Handle.counter "probe_counter_total" in
  report "Metrics.Handle.inc"
    (words_per_op ~ops (fun n ->
         for _ = 1 to n do
           Mbac_telemetry.Metrics.Handle.inc h
         done));
  (* computed values, not constants: a boxed argument or a boxed cell
     store would show *)
  let g = Mbac_telemetry.Metrics.Handle.gauge "probe_gauge" in
  report "Metrics.Handle.set_gauge"
    (words_per_op ~ops (fun n ->
         for i = 1 to n do
           Mbac_telemetry.Metrics.Handle.set_gauge g (float_of_int i *. 0.5)
         done));
  let hist =
    Mbac_telemetry.Histogram.create Mbac_telemetry.Histogram.default_log
  in
  report "Histogram.observe (log layout)"
    (words_per_op ~ops (fun n ->
         for i = 1 to n do
           Mbac_telemetry.Histogram.observe hist (float_of_int i *. 1e-6)
         done));

  (* serving engine: one decision-log line rendered into a file sink's
     staging buffer, with the buffer's writes to the file amortized in *)
  let engine =
    Mbac_serve.Engine.create ~decision_log_file:"/dev/null"
      { Mbac_serve.Engine.capacity = 100.0;
        criteria =
          [ Mbac_serve.Engine.Gaussian { cname = "ce:0.01"; p_ce = 0.01 } ];
        estimator = Mbac.Estimator.memoryless ();
        measure_every = 0 }
  in
  report "Engine.log_decision (per line)"
    (words_per_op ~ops (fun n ->
         for i = 1 to n do
           Mbac_serve.Engine.log_decision engine ~criterion:0
             ~admit:(i land 1 = 0)
         done));
  Mbac_serve.Engine.close_log engine;

  (* serving engine state: a measurement pass with two criteria, one
     decision, and one flow's add and subtract.  Each [now] is computed;
     where a call is not inlined it is boxed (2 words) at the call. *)
  let engine =
    Mbac_serve.Engine.create
      { Mbac_serve.Engine.capacity = 100.0;
        criteria =
          [ Mbac_serve.Engine.Gaussian { cname = "ce:0.01"; p_ce = 0.01 };
            Mbac_serve.Engine.Hoeffding
              { cname = "hoeffding:0.01:2.0"; p_ce = 0.01; peak = 2.0 } ];
        estimator = Mbac.Estimator.ewma ~t_m:100.0;
        measure_every = 0 }
  in
  for i = 1 to 90 do
    ignore
      (Mbac_serve.Engine.add engine ~load:(0.5 +. (float_of_int (i mod 3)))
         ~now:0.0)
  done;
  report "Engine.run_measurement (2 criteria)"
    (words_per_op ~ops (fun n ->
         for i = 1 to n do
           Mbac_serve.Engine.run_measurement engine ~now:(float_of_int i)
         done));
  report "Engine.decide"
    (words_per_op ~ops (fun n ->
         for i = 1 to n do
           if Mbac_serve.Engine.decide engine ~criterion:(i land 1) ~load:1.0
           then incr macc
         done));
  report "Engine.add+subtract (per pair)"
    (words_per_op ~ops (fun n ->
         for i = 1 to n do
           let now = float_of_int i in
           if Mbac_serve.Engine.add engine ~load:1.5 ~now then
             ignore (Mbac_serve.Engine.subtract engine ~load:1.5 ~now)
         done));

  (* the frame path: [Server.answer] over a batch of 1,024 frames of one
     kind, on an engine that measures every 16 accounting calls and logs
     its decisions to a file; per request.  Each frame carries its own
     [now] and load. *)
  let engine =
    Mbac_serve.Engine.create ~decision_log_file:"/dev/null"
      { Mbac_serve.Engine.capacity = 100.0;
        criteria =
          Mbac_serve.Spec.criteria_of_string "ce:0.01,hoeffding:0.01:2.0";
        estimator = Mbac.Estimator.ewma ~t_m:100.0;
        measure_every = 16 }
  in
  let session = Mbac_serve.Server.session engine in
  let out = Buffer.create 16384 in
  let batch = 1024 in
  let frames make =
    let b = Buffer.create 32768 in
    for i = 0 to batch - 1 do
      Mbac_serve.Protocol.encode_request b (make i)
    done;
    Buffer.to_bytes b
  in
  let answer name bytes =
    report
      (Printf.sprintf "Server.answer (%s)" name)
      (words_per_op ~ops:(batch * 1000) (fun n ->
           for _ = 1 to n / batch do
             Buffer.clear out;
             ignore
               (Mbac_serve.Server.answer session bytes ~pos:0
                  ~avail:(Bytes.length bytes) out)
           done))
  in
  let load i = 0.5 +. (float_of_int (i mod 7) /. 7.0) in
  let now i = float_of_int i in
  answer "Add"
    (frames (fun i -> Mbac_serve.Protocol.Add { load = load i; now = now i }));
  answer "Decide"
    (frames (fun i ->
         Mbac_serve.Protocol.Decide
           { criterion = i land 1; load = load i; now = now i }));
  answer "Log_decision"
    (frames (fun i ->
         Mbac_serve.Protocol.Log_decision
           { criterion = i land 1; admit = i land 2 = 0 }));
  answer "Subtract"
    (frames (fun i ->
         Mbac_serve.Protocol.Subtract { load = load i; now = now i }));
  Mbac_serve.Engine.close_log engine;

  (* parallel-pool bookkeeping per task: shard create + claim + cell +
     submission-order merge, measured on the serial path so the counters
     (which are per-domain) see every allocation.  The task list is
     prebuilt: this probes the pool machinery, not closure construction.
     Promoted words matter here — each task's shard and cell survive to
     the join. *)
  let pool_batch = 1_000 in
  let pool_tasks = List.init pool_batch (fun _ () -> ()) in
  report "Parallel.run_tasks (per task)"
    (words_per_op ~ops:100_000 (fun n ->
         for _ = 1 to n / pool_batch do
           ignore (Mbac_sim.Parallel.run_tasks ~jobs:1 pool_tasks)
         done));

  (* whole event loop: words per simulated event, end to end *)
  let sim_events = 200_000 in
  let run_sim n =
    let cfg =
      { (Mbac_sim.Continuous_load.default_config ~capacity:100.0
           ~holding_time_mean:1000.0 ~target_p_q:1e-3)
        with
        Mbac_sim.Continuous_load.max_events = n;
        warmup = 10.0;
        batch_length = 100.0;
        check_every_events = max_int }
    in
    let controller =
      Mbac.Controller.with_memory ~capacity:100.0 ~p_ce:1e-3 ~t_m:100.0
    in
    let rng = Mbac_stats.Rng.create ~seed:11 in
    ignore
      (Mbac_sim.Continuous_load.run rng cfg ~controller
         ~make_source:(fun rng ~start ->
           Mbac_traffic.Rcbr.create rng
             (Mbac_traffic.Rcbr.default_params ~mu:1.0)
             ~start))
  in
  Printf.printf "words per simulated event (%d events):\n%!" sim_events;
  report "continuous-load event loop"
    (words_per_op ~ops:sim_events (fun n -> run_sim n));

  (* the network engine, whole run: perfbench net-churn's shape
     (core-edge 8x2, 4 shards run serially), per event it processed *)
  let run_net n =
    let topology =
      match
        Mbac_net.Topology.of_spec ~rate:9.0 ~capacity:100.0 "core-edge:8x2"
      with
      | Ok t -> t
      | Error e -> failwith e
    in
    let cfg =
      { (Mbac_net.Network.default_config ~topology ~holding_time_mean:10.0
           ~target_p_q:1e-3)
        with
        Mbac_net.Network.shards = 4;
        max_events = n }
    in
    Mbac_net.Network.run ~jobs:1 ~seed:11 cfg
      ~make_controller:(fun ~link:_ ~capacity ->
        Mbac.Controller.with_memory ~capacity ~p_ce:1e-3 ~t_m:10.0)
      ~make_source:(fun rng ~start ->
        Mbac_traffic.Rcbr.create rng
          (Mbac_traffic.Rcbr.default_params ~mu:1.0)
          ~start)
  in
  ignore (run_net (sim_events / 10));
  let c0 = counters () in
  let r = run_net sim_events in
  let c1 = counters () in
  report "network run (core-edge 8x2, 4 shards)"
    (per ~ops:r.Mbac_net.Network.events c0 c1);

  ignore !macc;
  Printf.printf "done (acc=%g)\n" (Float.Array.get facc 0)
