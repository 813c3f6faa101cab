(* Same-process performance gates.

   Each gate checks claims the tree makes about itself that only a
   measurement inside one process can see: allocation per event, the
   calendar queue against the binary heap, the network's determinism
   across reshards and its parallel bars, the serving engine's decision
   floor, the replication pool's speed-up, and the splitting engine's
   advantage at the paper's deep tail.  Every gate returns one [gate]
   record: the values it measured, plus named checks that each carry a
   bound and a verdict.  One writer renders the records into
   BENCH.json, and under --gate the exit status is the AND of every
   check of every gate that ran.  Timed end-to-end claims against a
   parent commit belong to perfbench/.

   Only release builds give meaningful numbers: dune's dev profile
   passes -opaque, which discards cross-module inlining and distorts
   both throughput and allocation counts (PERFORMANCE.md). *)

open Cmdliner
module J = Mbac_telemetry.Json
module CL = Mbac_sim.Continuous_load
module Net = Mbac_net.Network

type bound = At_least of float | At_most of float

type check = { name : string; value : float; bound : bound; pass : bool }

let at_least name value b =
  { name; value; bound = At_least b; pass = value >= b }

let at_most name value b = { name; value; bound = At_most b; pass = value <= b }

type gate = {
  toy : bool;
  values : (string * string) list; (* rendered JSON, in output order *)
  checks : check list; (* only those that hold at this size *)
  history : (string * float) list; (* this run's history-row columns *)
}

let passed g = List.for_all (fun c -> c.pass) g.checks

let header fmt ~toy title =
  Format.fprintf fmt "@.=== %s%s ===@." title (if toy then " [toy]" else "")

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let per_sec n t0 = float_of_int n /. ((now_ns () -. t0) /. 1e9)

(* Timed figures are the median of three windows: one window of a
   memory-bound loop wanders +-10% with machine jitter, too much for a
   relative bar. *)
let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let rcbr rng ~start =
  Mbac_traffic.Rcbr.create rng (Mbac_traffic.Rcbr.default_params ~mu:1.0)
    ~start

(* ---------- --hotpath ---------- *)

(* The continuous-load loop at the §5.2 point may allocate at most 9
   words per event (7.5 measured): the calendar queue allocates nothing
   in steady state, so the budget is measurement batches and controller
   updates. *)
let hotpath_words = 9.0

let hotpath_sim ~max_events =
  let cfg =
    { (CL.default_config ~capacity:100.0 ~holding_time_mean:1000.0
         ~target_p_q:1e-3)
      with
      CL.max_events;
      warmup = 10.0;
      batch_length = 100.0;
      (* no early stop: exactly [max_events], so per-event figures
         compare across runs *)
      check_every_events = max_int }
  in
  let controller =
    Mbac.Controller.with_memory ~capacity:100.0 ~p_ce:1e-3 ~t_m:100.0
  in
  CL.run (Mbac_stats.Rng.create ~seed:11) cfg ~controller ~make_source:rcbr

(* Brown's "hold" model (CACM 1988): fill the queue with [pending]
   events at unit mean spacing, then pop the minimum and push a
   replacement at [t_min + Exp(mean = pending)], which keeps the
   population and the event-time window stationary.  One event is one
   pop+push pair.  Increments are pre-drawn, so the timed loop measures
   the queue, and both queues consume the same sequence.  The loop is
   written once per queue against the concrete module: without flambda
   a functor boundary boxes every float crossing it. *)
let hold_mask = (1 lsl 16) - 1

let hold_incs =
  lazy
    (let rng = Mbac_stats.Rng.create ~seed:17 in
     Float.Array.init (hold_mask + 1) (fun _ ->
         Mbac_stats.Sample.exponential rng ~mean:1.0))

let hold_ops = 2_000_000

(* Fill a queue with [pending] events and hand back its [cycle], where
   [cycle n] runs n pop+push pairs.  Untimed churn of two fill spans
   drains the fill transient (until it is gone the event density drifts
   by ~x2) and lets the calendar's width recalibration settle before
   the clock starts. *)
let hold_ready ~pending ~push ~cycle =
  let incs = Lazy.force hold_incs in
  let t = ref 0.0 in
  for i = 0 to pending - 1 do
    t := !t +. Float.Array.get incs (i land hold_mask);
    push !t i
  done;
  cycle ((2 * pending) + (hold_ops / 4));
  cycle

let hold_heap pending =
  let module H = Mbac_heap.Event_heap in
  let q = H.create () in
  let incs = Lazy.force hold_incs and fp = float_of_int pending in
  hold_ready ~pending
    ~push:(fun time i -> H.push q ~time i)
    ~cycle:(fun n ->
      for i = 0 to n - 1 do
        let tm = H.min_time q in
        let p = H.min_payload q in
        H.drop_min q;
        H.push q
          ~time:(tm +. (Float.Array.unsafe_get incs (i land hold_mask) *. fp))
          p
      done)

let hold_calendar pending =
  let module Q = Mbac_sim.Calendar_queue in
  let q = Q.create () in
  let incs = Lazy.force hold_incs and fp = float_of_int pending in
  hold_ready ~pending
    ~push:(fun time i -> Q.push q ~time i)
    ~cycle:(fun n ->
      for i = 0 to n - 1 do
        let tm = Q.min_time q in
        let p = Q.min_payload q in
        Q.drop_min q;
        Q.push q
          ~time:(tm +. (Float.Array.unsafe_get incs (i land hold_mask) *. fp))
          p
      done)

(* One row: both queues filled side by side, then timed in interleaved
   windows (heap, calendar, heap, ...), so that each calendar window is
   compared with the heap window next to it rather than with one timed
   seconds apart: the two rates swing together from one process to
   the next, and their ratio much less.  The row reports the median
   rate of each queue, the median of the per-window ratios, and the
   calendar's minor words per event. *)
let hold_windows = 7
let hold_window_ops = 3 * hold_ops / hold_windows

let hold_row pending =
  let heap = hold_heap pending and cal = hold_calendar pending in
  let ops = hold_window_ops in
  let timed cycle =
    let t0 = now_ns () in
    cycle ops;
    per_sec ops t0
  in
  let windows =
    Array.init hold_windows (fun _ ->
        let h = timed heap in
        let minor0 = Gc.minor_words () in
        let c = timed cal in
        let minor1 = Gc.minor_words () in
        (h, c, (minor1 -. minor0) /. float_of_int ops))
  in
  let med f = median (Array.map f windows) in
  ( med (fun (h, _, _) -> h),
    med (fun (_, c, _) -> c),
    med (fun (h, c, _) -> c /. h),
    med (fun (_, _, w) -> w) )

(* In the cache-resident rows (10^3, 10^5 pending) the per-op cost is
   the algorithm, and the calendar queue must clear 10M events/sec.  At
   10^6 pending the ~40MB working set makes any queue DRAM-bound (about
   two dependent misses per hold cycle), which compresses speed-ups, so
   that row's bar against the heap depends on the rest: none if the
   calendar clears the floor there outright, x1.3 if it clears it in a
   cache-resident row, else x2.5.  The reference container measures
   x2.60 / x2.05 / x1.44. *)
let hold_floor = 1e7

let hotpath fmt ~toy:_ =
  header fmt ~toy:false "Hot-path gate";
  ignore (hotpath_sim ~max_events:200_000) (* warm up code + allocator *);
  let t0 = now_ns () in
  let minor0 = Gc.minor_words () in
  let r = hotpath_sim ~max_events:1_000_000 in
  let minor1 = Gc.minor_words () in
  let events = r.CL.events in
  let eps = per_sec events t0 in
  let words = (minor1 -. minor0) /. float_of_int events in
  Format.fprintf fmt
    "  continuous-load loop:   %10.0f events/sec  (%d events; same-process \
     context, perfbench's paper-link times the claim)@."
    eps events;
  Format.fprintf fmt "  minor allocation:       %10.2f words/event@." words;
  Format.fprintf fmt
    "  queue hold model (%d interleaved windows of %d pop+push pairs \
     per queue and row):@."
    hold_windows hold_window_ops;
  let rows =
    List.map
      (fun pending ->
        let heap, cal, speedup, cal_words = hold_row pending in
        Format.fprintf fmt
          "    pending %8d:  heap %10.0f ev/s   calendar %10.0f ev/s   \
           x%.2f  (%.2f words/event)@."
          pending heap cal speedup cal_words;
        (pending, heap, cal, speedup, cal_words))
      [ 1_000; 100_000; 1_000_000 ]
  in
  let best =
    List.fold_left (fun a (_, _, cal, _, _) -> Float.max a cal) 0. rows
  in
  let _, _, cal, speedup, _ = List.nth rows 2 in
  let required =
    if cal >= hold_floor then 0.0 else if best >= hold_floor then 1.3 else 2.5
  in
  Format.fprintf fmt "  cache-resident floor %.2g ev/s (best %.3g): %s@."
    hold_floor best
    (if best >= hold_floor then "met" else "missed");
  { toy = false;
    values =
      [ ("events", J.int events);
        ("events_per_sec", J.float eps);
        ("minor_words_per_event", J.float words);
        ("hold_windows", J.int hold_windows);
        ("hold_window_ops", J.int hold_window_ops);
        ("hold_rows",
         J.arr
           (List.map
              (fun (pending, heap, cal, speedup, w) ->
                J.obj
                  [ ("pending", J.int pending);
                    ("heap_events_per_sec", J.float heap);
                    ("calendar_events_per_sec", J.float cal);
                    ("speedup_vs_heap", J.float speedup);
                    ("calendar_minor_words_per_event", J.float w) ])
              rows)) ];
    checks =
      [ at_most "minor_words_per_event" words hotpath_words;
        at_least "hold_speedup_vs_heap_at_1e6_pending" speedup required
      ];
    history =
      [ ("hotpath_events_per_sec", eps);
        ("queue_calendar_events_per_sec", cal);
        ("queue_pending", 1e6) ] }

(* ---------- --network ---------- *)

(* A 1-shard 1-link network is the continuous-load Poisson loop plus
   the wheel-payload and window machinery on the identical draw
   sequence; the machinery may cost at most 10% (ratio >= 0.9).  An
   8-leaf star resharded across {1, 2, 4} wheels with jobs = shards must
   speed up by the hardware-aware bar: x2.5 at width 4 on >= 4 cores,
   x1.4 at width 2 on >= 2, else x0.7 (domains time-sharing one core
   cannot speed up; the bar guards against window bookkeeping becoming
   a deep net loss).  The 4-shard star run serially (one runner, so
   every cross-shard message is pushed at send time) is timed against
   the same 1-shard base, as a printed row.  Every reshard must render
   the same summary, so a "fix" that buys throughput by breaking
   determinism cannot pass, and the 4-shard star run serially may
   allocate at most 7.8 words per event (1.4 measured).  Events/sec
   rows are same-process context: the timed claim against a parent
   commit is perfbench's net-churn.  --toy keeps the size-free checks
   only. *)
let network_words = 7.8

let network_required ~cores ~effective =
  let hw = min effective cores in
  if effective >= 4 && hw >= 4 then 2.5
  else if effective >= 2 && hw >= 2 then 1.4
  else 0.7

let network_rate = 0.09 (* offered load 0.9 per link at T_h = 1000 *)

let network_controller ~link:_ ~capacity =
  Mbac.Controller.with_memory ~capacity ~p_ce:1e-3 ~t_m:100.0

let network_run ~topology ~shards ~jobs ~max_events =
  Net.run ~jobs ~seed:11
    { (Net.default_config ~topology ~holding_time_mean:1000.0
         ~target_p_q:1e-3)
      with
      Net.shards;
      warmup = 10.0;
      batch_length = 100.0;
      max_events }
    ~make_controller:network_controller ~make_source:rcbr

(* the first of the three runs also absorbs domain spawn *)
let time_network ~topology ~shards ~jobs ~max_events =
  let last = ref None in
  let eps =
    Array.init 3 (fun _ ->
        let t0 = now_ns () in
        let r = network_run ~topology ~shards ~jobs ~max_events in
        let e = per_sec r.Net.events t0 in
        last := Some r;
        e)
  in
  (Option.get !last, median eps)

let network fmt ~toy =
  header fmt ~toy "Network gate (sharded multi-link simulator)";
  Format.fprintf fmt
    "  (events/sec rows: same-process context; perfbench times the claim)@.";
  let single_events = if toy then 100_000 else 500_000 in
  let single =
    Mbac_net.Topology.line ~links:1 ~capacity:100.0 ~rate:network_rate
  in
  ignore
    (network_run ~topology:single ~shards:1 ~jobs:1
       ~max_events:(single_events / 5)) (* warm up code + allocator *);
  let net1, net1_eps =
    time_network ~topology:single ~shards:1 ~jobs:1 ~max_events:single_events
  in
  let loop_cfg =
    { (CL.default_config ~capacity:100.0 ~holding_time_mean:1000.0
         ~target_p_q:1e-3)
      with
      CL.arrival = `Poisson network_rate;
      warmup = 10.0;
      batch_length = 100.0;
      check_every_events = max_int;
      max_events = net1.Net.events }
  in
  let run_loop () =
    CL.run
      (Mbac_stats.Rng.derive ~seed:11 ~tag:(Net.route_stream_tag 0))
      loop_cfg
      ~controller:(network_controller ~link:0 ~capacity:100.0)
      ~make_source:rcbr
  in
  ignore (run_loop ());
  let loop_eps =
    median
      (Array.init 3 (fun _ ->
           let t0 = now_ns () in
           let r = run_loop () in
           per_sec r.CL.events t0))
  in
  let ratio = net1_eps /. loop_eps in
  Format.fprintf fmt
    "  continuous-load loop:    %10.0f events/sec  (%d events)@." loop_eps
    net1.Net.events;
  Format.fprintf fmt
    "  1-shard 1-link network:  %10.0f events/sec   ratio x%.2f@." net1_eps
    ratio;
  let star =
    Mbac_net.Topology.star ~leaves:8 ~capacity:100.0 ~rate:network_rate
  in
  let star_events = if toy then 150_000 else 600_000 in
  let cores = Domain.recommended_domain_count () in
  Format.fprintf fmt
    "  8-leaf star, shards = jobs in {1, 2, 4} (%d core(s) available, \
     domain cap %d):@."
    cores
    (Mbac_sim.Parallel.domain_cap ());
  let runs =
    List.map
      (fun shards ->
        let r, eps =
          time_network ~topology:star ~shards ~jobs:shards
            ~max_events:star_events
        in
        (shards, r, eps))
      [ 1; 2; 4 ]
  in
  let base = match runs with (_, _, eps) :: _ -> eps | [] -> nan in
  let rows =
    List.map
      (fun (shards, r, eps) ->
        let effective = Mbac_sim.Parallel.effective_jobs ~jobs:shards shards in
        let speedup = eps /. base in
        Format.fprintf fmt "    shards %d: %10.0f events/sec%s@." shards eps
          (if shards = 1 then "   (base)"
           else
             Printf.sprintf "   speedup x%.2f  (width %d)" speedup effective);
        (shards, r, eps, effective, speedup))
      runs
  in
  let serial, serial_eps =
    time_network ~topology:star ~shards:4 ~jobs:1 ~max_events:star_events
  in
  let serial_ratio = serial_eps /. base in
  Format.fprintf fmt
    "  8-leaf star, 4 shards serially (jobs 1): %10.0f events/sec   ratio \
     x%.2f to the base@."
    serial_eps serial_ratio;
  let renders =
    List.sort_uniq String.compare
      (List.map
         (fun r -> Format.asprintf "%a" Net.pp_result r)
         (serial :: List.map (fun (_, r, _) -> r) runs))
  in
  Format.fprintf fmt "  resharded summaries byte-identical: %s@."
    (if List.length renders = 1 then "yes"
     else "NO — determinism contract broken");
  let _, _, eps4 = List.nth runs 2 in
  let words =
    let minor0 = Gc.minor_words () in
    let r =
      network_run ~topology:star ~shards:4 ~jobs:1 ~max_events:star_events
    in
    (Gc.minor_words () -. minor0) /. float_of_int r.Net.events
  in
  Format.fprintf fmt "  minor allocation, 4 shards serially: %.2f words/event@."
    words;
  let reshard_checks =
    List.filter_map
      (fun (shards, _, _, effective, speedup) ->
        if shards = 1 then None
        else
          Some
            (at_least
               (Printf.sprintf "reshard_speedup_at_%d_shards" shards)
               speedup
               (network_required ~cores ~effective)))
      rows
  in
  { toy;
    values =
      [ ("continuous_load_events_per_sec", J.float loop_eps);
        ("single_link_events_per_sec", J.float net1_eps);
        ("overhead_ratio", J.float ratio);
        ("rows",
         J.arr
           (List.map
              (fun (shards, r, eps, effective, speedup) ->
                J.obj
                  [ ("shards", J.int shards);
                    ("width", J.int effective);
                    ("events", J.int r.Net.events);
                    ("events_per_sec", J.float eps);
                    ("speedup", J.float speedup) ])
              rows));
        ("serial_4_shards",
         J.obj
           [ ("events", J.int serial.Net.events);
             ("events_per_sec", J.float serial_eps);
             ("ratio_to_base", J.float serial_ratio) ]);
        ("distinct_reshard_summaries", J.int (List.length renders));
        ("minor_words_per_event", J.float words) ];
    checks =
      (if toy then []
       else at_least "overhead_ratio" ratio 0.9 :: reshard_checks)
      @ [ at_most "distinct_reshard_summaries"
            (float_of_int (List.length renders)) 1.0;
          at_most "minor_words_per_event" words network_words ];
    history = [ ("network_events_per_sec", eps4) ] }

(* ---------- --serve ---------- *)

(* Single-core decision throughput through the full in-process stack:
   every request is encoded to wire bytes, decoded by the server session
   layer, dispatched, and the response decoded back — the path a socket
   peer exercises minus the kernel.  A mixed loadgen warm-up publishes
   an estimate first; then a pure Decide loop is timed against a floor
   of 1e6 decisions/sec (full size only).  Latency quantiles come from
   the [serve_decision_latency_seconds] quantile histogram.  Then the
   mix's recorded frames are replayed through [Server.answer] alone,
   whose minor words per request must be (about) zero at any size. *)
let serve_floor = 1e6

(* The frame path allocates nothing: a [Server.answer] replay of the
   mix may allocate at most this many minor words per request. *)
let serve_words = 0.01

let serve_config () =
  { Mbac_serve.Engine.capacity = 100.0;
    criteria =
      [ Mbac_serve.Engine.Gaussian { cname = "ce:0.01"; p_ce = 0.01 };
        Mbac_serve.Engine.Hoeffding
          { cname = "hoeffding:0.01:2.0"; p_ce = 0.01; peak = 2.0 } ];
    estimator = Mbac.Estimator.ewma ~t_m:100.0;
    measure_every = 16 }

let serve_mix ~toy =
  { Mbac_serve.Loadgen.seed = 7;
    requests = (if toy then 5_000 else 50_000);
    arrival_mean = 1.0; hold_mean = 100.0; load_mean = 1.0;
    load_std = 0.3; n_criteria = 2 }

(* Minor words per request of the mix's request batches, as a client
   sends them, replayed through [Server.answer] on a fresh engine that
   logs its decisions to a file; the first tenth warms it up. *)
let server_words ~toy =
  let client =
    Mbac_serve.Client.inproc (Mbac_serve.Engine.create (serve_config ()))
  in
  let batches = Mbac_serve.Loadgen.record client (serve_mix ~toy) in
  Mbac_serve.Client.close client;
  let engine =
    Mbac_serve.Engine.create ~decision_log_file:Filename.null (serve_config ())
  in
  let session = Mbac_serve.Server.session engine in
  let out = Buffer.create 4096 in
  let replay lo hi =
    for i = lo to hi - 1 do
      Buffer.clear out;
      let b = batches.(i) in
      ignore
        (Mbac_serve.Server.answer session b ~pos:0 ~avail:(Bytes.length b) out)
    done
  in
  let warm = Array.length batches / 10 in
  replay 0 warm;
  let requests () =
    (Mbac_serve.Engine.stats engine).Mbac_serve.Engine.requests
  in
  let r0 = requests () and w0 = Gc.minor_words () in
  replay warm (Array.length batches);
  let w1 = Gc.minor_words () and r1 = requests () in
  Mbac_serve.Engine.close_log engine;
  (w1 -. w0) /. float_of_int (r1 - r0)

let serve fmt ~toy =
  header fmt ~toy "Serving-engine gate (in-process decision throughput)";
  let engine = Mbac_serve.Engine.create (serve_config ()) in
  let client = Mbac_serve.Client.inproc engine in
  let warm = Mbac_serve.Loadgen.run client (serve_mix ~toy) in
  Format.fprintf fmt "  warmup: %d requests, %d admitted, %d departed@."
    warm.Mbac_serve.Loadgen.sent warm.Mbac_serve.Loadgen.admitted
    warm.Mbac_serve.Loadgen.departures;
  (* pre-drawn loads: the timed loop is pure client + engine *)
  let loads =
    let rng = Mbac_stats.Rng.derive ~seed:7 ~tag:"bench-serve-loads" in
    Array.init 1024 (fun _ ->
        Mbac_stats.Sample.lognormal_of_moments rng ~mean:1.0 ~std:0.3)
  in
  let decides = if toy then 200_000 else 2_000_000 in
  let admits = ref 0 in
  let t0 = now_ns () in
  for i = 0 to decides - 1 do
    match
      Mbac_serve.Client.rpc client
        (Mbac_serve.Protocol.Decide
           { criterion = i land 1; load = loads.(i land 1023);
             now = float_of_int i })
    with
    | Mbac_serve.Protocol.Decision { admit; _ } -> if admit then incr admits
    | _ -> failwith "bench: unexpected Decide reply"
  done;
  let dps = per_sec decides t0 in
  Mbac_serve.Client.close client;
  let q =
    match
      Mbac_telemetry.Snapshot.find
        (Mbac_telemetry.Snapshot.current ())
        "serve_decision_latency_seconds"
    with
    | Some (Mbac_telemetry.Snapshot.Histogram h) ->
        Mbac_telemetry.Histogram.quantile h
    | _ -> fun _ -> nan
  in
  let admit_rate = float_of_int !admits /. float_of_int decides in
  let updates = (Mbac_serve.Engine.stats engine).Mbac_serve.Engine.updates in
  Format.fprintf fmt
    "  decide loop:   %d requests in %.3f s = %.3g decisions/sec@." decides
    (float_of_int decides /. dps) dps;
  Format.fprintf fmt "  latency:       p50 %.3g s  p99 %.3g s  p999 %.3g s@."
    (q 0.5) (q 0.99) (q 0.999);
  Format.fprintf fmt "  admit rate %.3f, measurement updates %d@." admit_rate
    updates;
  let words = server_words ~toy in
  Format.fprintf fmt "  frame path:    %.4f minor words per request@." words;
  { toy;
    values =
      [ ("decide_requests", J.int decides);
        ("decisions_per_sec", J.float dps);
        ("latency_seconds",
         J.obj
           [ ("p50", J.float (q 0.5));
             ("p99", J.float (q 0.99));
             ("p999", J.float (q 0.999)) ]);
        ("admit_rate", J.float admit_rate);
        ("measurement_updates", J.int updates);
        ("server_minor_words_per_request", J.float words) ];
    checks =
      at_most "server_minor_words_per_request" words serve_words
      :: (if toy then [] else [ at_least "decisions_per_sec" dps serve_floor ]);
    history = [ ("serve_decisions_per_sec", dps) ] }

(* ---------- --scaling ---------- *)

(* A 16-cell sweep of short continuous-load sims — the shape of every
   figure reproduction — fanned out at pool widths 1/2/4.  The
   determinism contract says the results are identical; this measures
   whether the wall clock shrinks.  Bars: x3 at jobs 4 on a width and
   core count >= 4, x1.6 at jobs >= 2 on >= 2, else x0.8 — on fewer
   cores than the width a wall-clock speed-up is unattainable, so the
   bar only guards against fan-out becoming a net loss (the
   pre-refactor pool bottomed at x0.90 on one core). *)
let scaling_cells = 16

let sweep ~jobs =
  ignore
    (Mbac_sim.Parallel.run_tasks ~jobs
       (List.init scaling_cells (fun i () ->
            let cfg =
              { (CL.default_config ~capacity:100.0 ~holding_time_mean:1000.0
                   ~target_p_q:1e-3)
                with
                CL.max_events = 25_000;
                warmup = 10.0;
                batch_length = 100.0 }
            in
            let controller =
              Mbac.Controller.with_memory ~capacity:100.0 ~p_ce:1e-3
                ~t_m:100.0
            in
            let rng =
              Mbac_stats.Rng.derive ~seed:11
                ~tag:(Printf.sprintf "bench-scaling-%d" i)
            in
            CL.run rng cfg ~controller ~make_source:rcbr)))

let scaling_required ~cores ~jobs ~effective =
  let hw = min effective cores in
  if jobs >= 4 && hw >= 4 then 3.0
  else if jobs >= 2 && hw >= 2 then 1.6
  else 0.8

(* A sweep is ~100-200 ms, so a 1 s quota yields single-digit sample
   counts and +-25% scatter; 4 s per row buys ~30 OLS samples. *)
let sweep_ns jobs =
  let open Bechamel in
  let test =
    Test.make ~name:(Printf.sprintf "sweep jobs=%d" jobs)
      (Staged.stage (fun () -> sweep ~jobs))
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let results =
    Benchmark.all
      (Benchmark.cfg ~limit:200 ~quota:(Time.second 4.0) ~kde:None ())
      [ clock ] test
  in
  Hashtbl.fold
    (fun _ ols acc ->
      match Analyze.OLS.estimates ols with Some [ est ] -> est | _ -> acc)
    (Analyze.all
       (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
       clock results)
    nan

let scaling fmt ~toy:_ =
  let cores = Domain.recommended_domain_count () in
  header fmt ~toy:false
    (Printf.sprintf
       "Parallel scaling (%d-sim sweep, jobs in {1, 2, 4}; %d core(s) \
        available, domain cap %d)"
       scaling_cells cores
       (Mbac_sim.Parallel.domain_cap ()));
  sweep ~jobs:2 (* warm up the domain machinery once *);
  let base = sweep_ns 1 in
  Format.fprintf fmt "  %-24s %12.3f ms/run@." "sweep jobs=1" (base /. 1e6);
  let rows =
    List.map
      (fun jobs ->
        let effective = Mbac_sim.Parallel.effective_jobs ~jobs scaling_cells in
        let ns = sweep_ns jobs in
        Format.fprintf fmt "  %-24s %12.3f ms/run   speedup x%.2f  (width %d)@."
          (Printf.sprintf "sweep jobs=%d" jobs)
          (ns /. 1e6) (base /. ns) effective;
        (jobs, effective, ns))
      [ 2; 4 ]
  in
  let _, _, ns4 = List.nth rows 1 in
  { toy = false;
    values =
      [ ("available_cores", J.int cores);
        ("domain_cap", J.int (Mbac_sim.Parallel.domain_cap ()));
        ("rows",
         J.arr
           (J.obj
              [ ("jobs", J.int 1); ("width", J.int 1);
                ("ns_per_run", J.float base) ]
           :: List.map
                (fun (jobs, effective, ns) ->
                  J.obj
                    [ ("jobs", J.int jobs);
                      ("width", J.int effective);
                      ("ns_per_run", J.float ns);
                      ("speedup", J.float (base /. ns)) ])
                rows)) ];
    checks =
      List.map
        (fun (jobs, effective, ns) ->
          at_least
            (Printf.sprintf "speedup_at_jobs_%d" jobs)
            (base /. ns)
            (scaling_required ~cores ~jobs ~effective))
        rows;
    history = [ ("scaling_speedup_at_4", base /. ns4) ] }

(* ---------- --rare ---------- *)

(* How many events must naive time-fraction Monte Carlo simulate at a
   deep tail, against the splitting engine?  The system is the
   deep-tail Fig 5 cell (n = 100, p_q = 1e-5, T_m = 10), whose p_f sits
   near 1e-5.  Naive MC cannot reach a 10% CI there in any reasonable
   budget, so it runs a fixed budget and its cost at the target CI is
   extrapolated by (achieved/target)^2.  Splitting doubles its
   per-level trials until its CI meets the target.  The checks: the
   splitting CI at most 10%, and at least 20x fewer events.  --toy runs
   a seconds-scale system instead, whose ratio is not checked. *)
let rare fmt ~toy =
  header fmt ~toy "Rare-event gate (multilevel splitting vs naive MC)";
  let p =
    if toy then
      Mbac.Params.make ~n:30.0 ~mu:1.0 ~sigma:0.3 ~t_h:50.0 ~t_c:1.0 ~p_q:1e-3
    else
      Mbac.Params.make ~n:100.0 ~mu:1.0 ~sigma:0.3 ~t_h:1000.0 ~t_c:1.0
        ~p_q:1e-5
  in
  let t_m = if toy then Mbac.Params.t_h_tilde p else 10.0 in
  let alpha = Mbac.Params.alpha_q p in
  let capacity = Mbac.Params.capacity p in
  let target_ci = if toy then 0.5 else 0.1 in
  let base_cfg =
    Mbac_experiments.Common.sim_config ~profile:Mbac_experiments.Common.Quick
      ~p ~t_m
  in
  let controller () =
    Mbac_experiments.Common.ce_controller ~capacity ~t_m ~alpha_ce:alpha
  in
  let make_source = Mbac_experiments.Common.rcbr_factory ~p in
  (* naive: fixed event budget, no early stop, direct batch-means CI *)
  let naive =
    CL.run
      (Mbac_stats.Rng.derive ~seed:11 ~tag:"bench-rare-naive")
      { base_cfg with
        CL.max_events = (if toy then 400_000 else 24_000_000);
        check_every_events = max_int;
        max_time = infinity }
      ~controller:(controller ()) ~make_source
  in
  let naive_ci = naive.CL.ci_rel in
  Format.fprintf fmt
    "  naive MC:      p_f = %-10.4g ci_rel = %-8.3g (%d events)@." naive.CL.p_f
    naive_ci naive.CL.events;
  let naive_extrapolated =
    if Float.is_nan naive_ci || naive_ci <= 0.0 then nan
    else if naive_ci <= target_ci then float_of_int naive.CL.events
    else
      float_of_int naive.CL.events
      *. (naive_ci /. target_ci) *. (naive_ci /. target_ci)
  in
  if naive_ci > target_ci then
    Format.fprintf fmt "    -> %.3g events extrapolated to reach ci_rel = %g@."
      naive_extrapolated target_ci;
  let pilot_time =
    if toy then 400.0 else 100.0 *. base_cfg.CL.batch_length
  in
  let max_trials = if toy then 512 else 16_384 in
  let rec ladder trials =
    let r =
      Mbac_sim.Splitting.run ~seed:11
        { (Mbac_sim.Splitting.default_config ~pilot_time) with
          Mbac_sim.Splitting.trials_per_level = trials;
          levels = (if toy then 4 else 6);
          seed_tag = "bench-rare" }
        base_cfg ~controller:(controller ()) ~make_source
    in
    Format.fprintf fmt
      "  splitting:     p_f = %-10.4g ci_rel = %-8.3g (%d events, %d \
       trials/level)@."
      r.Mbac_sim.Splitting.p_f r.Mbac_sim.Splitting.ci_rel
      r.Mbac_sim.Splitting.total_events trials;
    if r.Mbac_sim.Splitting.ci_rel <= target_ci || trials >= max_trials then
      (r, trials)
    else ladder (2 * trials)
  in
  let split, trials = ladder (if toy then 256 else 1024) in
  let ratio =
    naive_extrapolated /. float_of_int split.Mbac_sim.Splitting.total_events
  in
  let theory = Mbac.Memory_formula.overflow_cached ~p ~t_m ~alpha_ce:alpha in
  Format.fprintf fmt
    "  theory (eqn 37): %.4g;  events ratio (naive at ci_rel = %g / \
     splitting): x%.1f@."
    theory target_ci ratio;
  { toy;
    values =
      [ ("target_ci_rel", J.float target_ci);
        ("splitting",
         J.obj
           [ ("p_f", J.float split.Mbac_sim.Splitting.p_f);
             ("ci_rel", J.float split.Mbac_sim.Splitting.ci_rel);
             ("events", J.int split.Mbac_sim.Splitting.total_events);
             ("trials_per_level", J.int trials) ]);
        ("naive",
         J.obj
           [ ("p_f", J.float naive.CL.p_f);
             ("ci_rel", J.float naive_ci);
             ("events", J.int naive.CL.events);
             ("events_extrapolated_at_target", J.float naive_extrapolated) ]);
        ("events_ratio", J.float ratio);
        ("theory_eqn37", J.float theory) ];
    checks =
      (if toy then []
       else
         [ at_most "splitting_ci_rel" split.Mbac_sim.Splitting.ci_rel target_ci;
           at_least "events_ratio" ratio 20.0 ]);
    history = [ ("rare_events_ratio", ratio) ] }

(* ---------- BENCH.json ---------- *)

(* The file holds the latest record of every gate (sections a run did
   not re-measure are carried from the previous file) and a history of
   rows, one per run, each holding only what that run measured. *)

let gates =
  [ ("hotpath",
     "Continuous-load words/event (<= 9.0) and the calendar queue \
      against the binary heap in the hold model.",
     hotpath);
    ("network",
     "Sharded network simulator: 1-link overhead, reshard speed-ups, \
      determinism across reshards, words/event (<= 7.8).",
     network);
    ("serve", "In-process serving engine: >= 1e6 decisions/sec.", serve);
    ("scaling", "Replication pool speed-up at jobs 2 and 4.", scaling);
    ("rare",
     "Multilevel splitting vs naive MC at p_q = 1e-5: >= 20x fewer events \
      at <= 10% CI.",
     rare) ]

let history_cap = 50

let git_describe () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line
  with _ -> "unknown"

let rec render = function
  | Mbac_telemetry.Json_parse.Null -> "null"
  | Bool b -> J.bool b
  | Num x -> J.float x
  | Str s -> J.string s
  | List l -> J.arr (List.map render l)
  | Obj kv -> J.obj (List.map (fun (k, v) -> (k, render v)) kv)

let render_check c =
  let key, b =
    match c.bound with
    | At_least b -> ("at_least", b)
    | At_most b -> ("at_most", b)
  in
  J.obj
    [ ("name", J.string c.name); ("value", J.float c.value); (key, J.float b);
      ("pass", J.bool c.pass) ]

let render_gate g =
  J.obj
    ((("toy", J.bool g.toy) :: g.values)
    @ [ ("checks", J.arr (List.map render_check g.checks));
        ("pass", J.bool (passed g)) ])

let read_previous path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> Ok []
  | text -> (
      match Mbac_telemetry.Json_parse.parse text with
      | Ok (Obj kv) -> Ok kv
      | Ok _ -> Error (path ^ ": not a JSON object")
      | Error e -> Error (path ^ ": " ^ e))

let write_bench_json ~path ~previous ran =
  let section (name, _, _) =
    match List.assoc_opt name ran with
    | Some g -> (name, render_gate g)
    | None ->
        ( name,
          Option.fold ~none:"null" ~some:render (List.assoc_opt name previous) )
  in
  let rows =
    (match List.assoc_opt "history" previous with
    | Some (List rows) -> List.map render rows
    | _ -> [])
    @ [ J.obj
          (("describe", J.string (git_describe ()))
          :: List.concat_map
               (fun (_, g) -> List.map (fun (k, v) -> (k, J.float v)) g.history)
               ran) ]
  in
  let drop = List.length rows - history_cap in
  let doc =
    J.obj
      ((("schema", J.string "mbac-bench/2") :: List.map section gates)
      @ [ ("history", J.arr (List.filteri (fun i _ -> i >= drop) rows)) ])
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc doc;
      output_char oc '\n')

(* ---------- command line ---------- *)

let print_check fmt c =
  let op, b =
    match c.bound with At_least b -> (">=", b) | At_most b -> ("<=", b)
  in
  Format.fprintf fmt "  check %s: %.4g %s %g: %s@." c.name c.value op b
    (if c.pass then "PASS" else "FAIL")

let main selected toy gate json tele =
  let chosen = List.filter (fun (name, _, _) -> List.mem name selected) gates in
  match (chosen, read_previous json) with
  | [], _ ->
      `Error
        ( true,
          "name at least one gate: --hotpath, --network, --serve, --scaling \
           or --rare" )
  | _, Error e -> `Error (false, e)
  | _, Ok previous ->
      Mbac_telemetry_cli.Flags.install tele;
      let fmt = Format.std_formatter in
      let ran =
        List.map
          (fun (name, _, run) ->
            let g = run fmt ~toy in
            List.iter (print_check fmt) g.checks;
            (name, g))
          chosen
      in
      write_bench_json ~path:json ~previous ran;
      Format.fprintf fmt "@.bench: wrote %s@." json;
      Mbac_telemetry_cli.Flags.finish tele;
      Format.fprintf fmt "bench: done.@.";
      `Ok (if gate && not (List.for_all (fun (_, g) -> passed g) ran) then 1
           else 0)

let selected =
  let named (name, doc, _) = (name, Arg.info [ name ] ~doc) in
  Arg.(value & vflag_all [] (List.map named gates))

let toy =
  Arg.(value & flag
       & info [ "toy" ]
           ~doc:"Run the network, serve and rare gates at seconds-scale \
                 sizes, checking only what holds at any size.")

let gate =
  Arg.(value & flag
       & info [ "gate" ]
           ~doc:"Exit 1 unless every check of every gate that ran passed.")

let json =
  Arg.(value & opt string "BENCH.json"
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Record the gates in $(docv), carrying the sections of \
                 gates that did not run and appending one history row.")

let () =
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "mbac_bench" ~doc:"Same-process performance gates"
             ~exits:
               (Cmd.Exit.info 1 ~doc:"under $(b,--gate), when a check failed."
               :: Cmd.Exit.defaults))
          Term.(
            ret
              (const main $ selected $ toy $ gate $ json
              $ Mbac_telemetry_cli.Flags.output_term))))
