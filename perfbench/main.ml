(* Outside-in benchmark: one run of one workload.

     main.exe --workload W --seed N --seconds S --trace 0|1
              --daemon PATH --hostcal PATH

   Runs one workload (paper-link, wide-link, net-churn, serve-socket)
   from a seed.  With --trace 0 it times only the public entry points
   and prints the end-to-end metrics; with --trace 1 it records spans
   around each layer's calls, replays every layer on state shaped like
   the workload, and prints the per-layer metrics.  The last stdout
   line is one JSON object: correct, attempted, failed, metrics.  See
   README.md; run it through run.py, which builds it first. *)

module CL = Mbac_sim.Continuous_load
module Net = Mbac_net.Network

type workload = Paper | Wide | Churn | Serve

let workloads =
  [ ("paper-link", Paper); ("wide-link", Wide); ("net-churn", Churn);
    ("serve-socket", Serve) ]

type outcome = {
  mutable metrics : (string * string * float) list;  (* name, unit, value *)
  mutable attempted : int;
  mutable failures : string list;
}

let add o name unit_ v = o.metrics <- (name, unit_, v) :: o.metrics
let fail o what = o.failures <- what :: o.failures
let fail_all o whats = List.iter (fail o) whats

(* ---------- end-to-end, simulators ---------- *)

(* A set-up takes tens to hundreds of microseconds, so many cost
   little and their median repeats between runs. *)
let setup_reps = 51

(* Set up [setup_reps] times (median is [setup_s]), warm up on a
   quarter-length call, then repeat timed calls while the next one is
   expected to end within [seconds] (at least three), sampling the host
   calibration loop ([hostcal], see Calib) for a twentieth of each
   call's time after it.  [call] returns events, its own wall time, the
   result digest and any failed checks; every call must give the same
   digest.  The rate is total events over total call time, scaled to
   the reference host speed; the raw figures are printed too. *)
let sim_e2e o ~name ~hostcal ~seed ~seconds ~setup ~call ~warm =
  let times = Array.make setup_reps 0.0 in
  let s = ref None in
  for i = 0 to setup_reps - 1 do
    let t0 = Clock.now_ns () in
    s := Some (setup ());
    times.(i) <- Clock.seconds_since t0
  done;
  let s = Option.get !s in
  warm s;
  let calib = Calib.create ~exe:hostcal Calib.Alloc in
  let total_events = ref 0 and total_ns = ref 0 and last_ns = ref 0 in
  let call_rates = ref [] in
  let calls = ref 0 and digest = ref "" in
  let budget_ns = int_of_float (seconds *. 1e9) in
  while !calls < 3 || !total_ns + calib.ns + !last_ns <= budget_ns do
    let events, ns, d, fails = call s in
    total_events := !total_events + events;
    total_ns := !total_ns + ns;
    last_ns := ns;
    call_rates := (float_of_int events /. (float_of_int ns *. 1e-9)) :: !call_rates;
    Calib.sample calib ~ns:(ns / 20);
    fail_all o fails;
    if !calls = 0 then digest := d
    else if d <> !digest then fail o "result digest differs between calls";
    incr calls
  done;
  Calib.close calib;
  o.attempted <- !total_events;
  let raw_rate = float_of_int !total_events /. (float_of_int !total_ns *. 1e-9) in
  let raw_latency_us = float_of_int !total_ns /. float_of_int !calls /. 1e3 in
  let host = Calib.factor calib in
  Printf.printf "%s seed=%d digest=%s calls=%d\n" name seed !digest !calls;
  Printf.printf "raw events/s %.0f, raw call latency %.0f us, host speed x%.3f\n"
    raw_rate raw_latency_us host;
  Printf.printf "call rates (events/s): %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.0f") !call_rates));
  Printf.printf "host speed after each call: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") calib.factors));
  add o "setup_s" "s" (Clock.median times);
  add o "events_per_s" "1/s" (raw_rate /. host);
  add o "latency_us" "us" (raw_latency_us *. host);
  add o "peak_rss_mb" "MB" (Clock.mb_of_kb (Clock.self_peak_rss_kb ()))

let cl_e2e o ~name model ~hostcal ~seed ~seconds =
  sim_e2e o ~name ~hostcal ~seed ~seconds
    ~setup:(fun () -> Sims.cl_setup model ~seed)
    ~warm:(fun s -> ignore (Sims.cl_run ~events:(model.Sims.events / 4) s))
    ~call:(fun s ->
      let r, ns = Sims.cl_run s in
      (r.CL.events, ns, Sims.cl_digest r, Sims.cl_check s r))

let net_e2e o ~hostcal ~seed ~seconds =
  sim_e2e o ~name:"net-churn" ~hostcal ~seed ~seconds
    ~setup:(fun () -> Sims.net_setup ~seed)
    ~warm:(fun s -> ignore (Sims.net_run ~events:(Sims.net_events / 4) s))
    ~call:(fun s ->
      let r, ns = Sims.net_run s in
      (r.Net.events, ns, Sims.net_digest r, Sims.net_check s r))

(* Set-up time, closed-loop throughput and open-loop Decide p50, each
   scaled by the host speed measured alongside it (ping-pong); the raw
   figures are printed too. *)
let serve_e2e o ~daemon ~hostcal ~seed ~seconds =
  let r = Serve_load.run_e2e ~exe:daemon ~hostcal ~seed ~seconds in
  o.attempted <- r.attempted;
  fail_all o r.failures;
  Printf.printf
    "raw setup %.1f us, raw requests/s %.0f, raw decide p50 %.3f us, host speed \
     x%.3f (set-up), x%.3f (open loop), x%.3f (closed loop)\n"
    (r.setup_s *. 1e6) r.requests_per_s r.decide_p50_us r.host_setup r.host_open
    r.host_closed;
  add o "setup_s" "s" (r.setup_s *. r.host_setup);
  (* a request is the daemon's unit of work *)
  add o "events_per_s" "1/s" (r.requests_per_s /. r.host_closed);
  add o "latency_us" "us" (r.decide_p50_us *. r.host_open);
  add o "peak_rss_mb" "MB" r.daemon_rss_mb

(* ---------- traced run ---------- *)

let decisions_counter () =
  match
    Mbac_telemetry.Snapshot.find (Mbac_telemetry.Snapshot.current ())
      "mbac_decisions_total"
  with
  | Some (Mbac_telemetry.Snapshot.Counter n) -> n
  | _ -> 0

(* Allocation and admission-test counts around one untraced call. *)
let counted f =
  let d0 = decisions_counter () in
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  let tests = decisions_counter () - d0 in
  ( r,
    tests,
    ( g1.Gc.minor_words -. g0.Gc.minor_words,
      g1.Gc.promoted_words -. g0.Gc.promoted_words,
      g1.Gc.major_collections - g0.Gc.major_collections ) )

(* What the workload's own simulator loop gives the traced run: its
   per-event cost and start time, the ops per event of each replayed
   layer (the attribution weights), and the state shape to replay. *)
type sim_loop = {
  start_s : float;
  start_flows_error : float;
  step_ns : float;
  weights : (string * float) list;
  overhead_pct : float;
  shape : Layers.shape;
  counts : (string * string * float) list;
  ops : int;  (* events the loop's own calls processed *)
  failures : string list;
}

let step_chunk = 65_536

(* The counts come from the public entry point, [run].  The times come
   from the stepping API, [start] then [step] in chunks over the same
   events ([run] dispatches them through [drain_min] instead), every
   other chunk inside a span.  Adjacent chunks share the host's speed,
   so the per-event cost of the two kinds of chunk, from the second
   pair on (past the start-up transient), gives the tracing overhead. *)
let cl_traced spans (s : Sims.cl_setup) ~events =
  ignore (Sims.cl_run ~events:(events / 4) s);
  let (r, _), tests, (minor, promoted, majors) =
    counted (fun () -> Sims.cl_run ~events s)
  in
  let steps sim k = for _ = 1 to k do CL.step sim done in
  let root = Spans.open_span spans "sim.workload" in
  let sim =
    Spans.with_span spans "sim.start" (fun () ->
        ( CL.start (Sims.cl_rng s) s.cfg ~controller:s.controller
            ~make_source:Sims.make_source,
          1 ))
  in
  let a0 = CL.flows sim in
  (* ns and events per kind of chunk: 0 bare, 1 in a span *)
  let ns = [| 0; 0 |] and evs = [| 0; 0 |] and i = ref 0 in
  while CL.events_processed sim < events do
    let k = min step_chunk (events - CL.events_processed sim) in
    let kind = !i land 1 in
    let t0 = Clock.now_ns () in
    if kind = 0 then steps sim k
    else Spans.with_span spans "sim.step" (fun () -> (steps sim k, k));
    if !i >= 2 then begin
      ns.(kind) <- ns.(kind) + (Clock.now_ns () - t0);
      evs.(kind) <- evs.(kind) + k
    end;
    incr i
  done;
  Spans.close_span spans root;
  let per_event kind = float_of_int ns.(kind) /. float_of_int evs.(kind) in
  let start_ns, _ = Spans.self_total spans "sim.start" in
  let step_ns, stepped = Spans.self_total spans "sim.step" in
  let e = float_of_int events in
  let fires = r.CL.reneg_attempts and admits = r.admitted - a0 in
  let per x = float_of_int x /. e in
  let sources = max 1 (int_of_float (Float.round r.mean_flows)) in
  (* Under continuous load the first admission test sees one flow's rate
     and no variance, so [start] admits ~c / r_1 flows at once (a known
     defect of the cold start): the relative distance of the flows right
     after [start] from n, the link's capacity in mean-rate flows.  (Not
     from the run's mean flow count, which is 0 when the overshoot uses
     up every event before the warm-up ends.) *)
  let start_flows_error = Float.abs ((float_of_int a0 /. s.model.n) -. 1.0) in
  Printf.printf "start admitted %d flows against n = %.0f (error %.3f); %.1f on average\n"
    a0 s.model.n start_flows_error r.mean_flows;
  { start_s = float_of_int start_ns *. 1e-9;
    start_flows_error;
    step_ns = float_of_int step_ns /. float_of_int stepped;
    overhead_pct = ((per_event 1 /. per_event 0) -. 1.0) *. 100.0;
    (* per event: one queue pop/push and one measurement segment; a
       fire per rate change; an observe per change, departure and
       admission; an admission test per event plus one per admission;
       per admission, the holding-time and source draws *)
    weights =
      [ ("sim.queue_hold", 1.0); ("sim.record", 1.0);
        ("traffic.fire", per fires);
        ("core.observe", per (fires + r.departed + admits));
        ("core.admissible", per (tests - a0 - 1));
        ("stats.exponential", per (2 * admits)); ("stats.gaussian", per admits) ];
    shape =
      { Layers.sources; params = s.p; pending = 2 * sources; msgs_per_window = 64 };
    counts =
      [ ("traffic.fires", "count", float_of_int fires);
        ("core.admission_tests", "count", float_of_int tests);
        ("sim.queue_pending", "count", float_of_int (2 * sources));
        ("sim.minor_words_per_event", "words", minor /. e);
        ("sim.promoted_words_per_event", "words", promoted /. e);
        ("sim.major_collections", "count", float_of_int majors) ];
    ops = 2 * events;
    failures = Sims.cl_check s r }

(* Net-churn's loop is one [Network.run] call: it is timed bare and
   inside a span alternately, three times each, for the tracing
   overhead. *)
let net_traced spans (s : Sims.net_setup) =
  ignore (Sims.net_run ~events:(Sims.net_events / 4) s);
  let (r, _), tests, (minor, promoted, majors) =
    counted (fun () -> Sims.net_run s)
  in
  let failures = ref (Sims.net_check s r) in
  let need ok what = if not ok then failures := !failures @ [ what ] in
  let hop_tests = Sims.hop_tests r in
  need (hop_tests = tests)
    "per-link hop tests disagree with the controllers' test count";
  let bare_ns = ref 0 and traced_ns = ref 0 and ops = ref r.events in
  for _ = 1 to 3 do
    let r', ns = Sims.net_run s in
    bare_ns := !bare_ns + ns;
    let t0 = Clock.now_ns () in
    let r'' =
      Spans.with_span spans "net.run" (fun () ->
          let x, _ = Sims.net_run s in
          (x, x.Net.events))
    in
    traced_ns := !traced_ns + (Clock.now_ns () - t0);
    ops := !ops + r'.events + r''.events;
    need
      (Sims.net_digest r' = Sims.net_digest r && Sims.net_digest r'' = Sims.net_digest r)
      "repeated runs differ"
  done;
  let run_ns, run_events = Spans.self_total spans "net.run" in
  let e = float_of_int r.events in
  let per x = float_of_int x /. e in
  let sum f = Array.fold_left (fun a l -> a + f l) 0 r.links in
  let hops = 3 (* every core-edge route: edge, core, edge *) in
  let updates = sum (fun l -> l.Net.updates) in
  let flows =
    int_of_float
      (Float.round
         (Array.fold_left (fun a l -> a +. l.Net.mean_load) 0.0 r.links
         /. Sims.mu /. float_of_int hops))
  in
  let attempts, gap = Sims.ingress_gap s r in
  Printf.printf "net-churn ingress attempts=%d admitted+blocked=%d gap=%.2f%%\n"
    attempts (attempts - gap) (100.0 *. float_of_int gap /. float_of_int attempts);
  let admitted = r.flows_admitted in
  let routes = Array.length s.ncfg.topology.Mbac_net.Topology.routes in
  let pending = ((4 * flows) + routes) / Sims.net_shards in
  let msgs_per_window = max 1 (r.messages / max 1 r.windows) in
  ( { start_s = nan;
      start_flows_error = nan;
      step_ns = float_of_int run_ns /. float_of_int run_events;
      overhead_pct = ((float_of_int !traced_ns /. float_of_int !bare_ns) -. 1.0) *. 100.0;
      (* a source fire reaches every hop of its route as an update, so
         fires are link updates over hops; an observe per update,
         release, test and reservation; a cross-shard message per
         exchange op *)
      weights =
        [ ("sim.queue_hold", 1.0); ("sim.record", 1.0);
          ("traffic.fire", per (updates / hops));
          ( "core.observe",
            per
              (updates + sum (fun l -> l.Net.released)
              + (2 * sum (fun l -> l.Net.reserved))
              + sum (fun l -> l.Net.link_blocked)) );
          ("core.admissible", per hop_tests);
          ("net.exchange", per r.messages);
          ("stats.exponential", per (attempts + (2 * admitted)));
          ("stats.gaussian", per admitted) ];
      shape =
        { Layers.sources = max 1 flows;
          params = Sims.params ~n:Sims.net_n ~t_h:Sims.net_t_h;
          pending; msgs_per_window };
      counts =
        [ ("traffic.fires", "count", float_of_int (updates / hops));
          ("core.admission_tests", "count", float_of_int tests);
          ("sim.queue_pending", "count", float_of_int pending);
          ("sim.minor_words_per_event", "words", minor /. e);
          ("sim.promoted_words_per_event", "words", promoted /. e);
          ("sim.major_collections", "count", float_of_int majors) ];
      ops = !ops;
      failures = !failures },
    [ ("net.messages_per_event", "ratio", per r.messages);
      ("net.windows", "count", float_of_int r.windows);
      ("net.hop_tests", "count", float_of_int hop_tests);
      ( "net.useful_hop_ratio", "ratio",
        float_of_int (hops * admitted) /. float_of_int (max 1 hop_tests) );
      ("net.minor_words_per_event", "words", minor /. e) ] )

let zero_counts names = List.map (fun (n, u) -> (n, u, 0.0)) names

let net_zero =
  zero_counts
    [ ("net.messages_per_event", "ratio"); ("net.windows", "count");
      ("net.hop_tests", "count"); ("net.minor_words_per_event", "words") ]
  (* a single link wastes no setup walk *)
  @ [ ("net.useful_hop_ratio", "ratio", 1.0) ]

let sim_zero =
  zero_counts
    [ ("traffic.fires", "count"); ("core.admission_tests", "count");
      ("sim.queue_pending", "count"); ("sim.minor_words_per_event", "words");
      ("sim.promoted_words_per_event", "words");
      ("sim.major_collections", "count") ]

(* Seconds of open loop for the serve probe in the simulator workloads'
   traced runs. *)
let probe_open_seconds = 1.0

let quantiles_us a =
  let a = Array.copy a in
  Array.sort compare a;
  let q p = float_of_int (Clock.quantile_sorted a p) /. 1e3 in
  (q 0.5, q 0.99, q 0.999)

let traced o workload ~daemon ~seed ~seconds =
  let run_id = Printf.sprintf "%s-seed%d-%d" (fst (List.find (fun (_, w) -> w = workload) workloads)) seed (Unix.getpid ()) in
  let spans = Spans.create ~run_id in
  (* the workload's own loops; a loop it lacks is probed at its
     reference shape (paper-link for the simulator, serve-socket for
     the daemon) so that every time metric is measured *)
  let own_sim, net_counts, serve_loop =
    match workload with
    | Paper | Wide ->
        let model = if workload = Paper then Sims.paper else Sims.wide in
        let s = Sims.cl_setup model ~seed in
        let loop = cl_traced spans s ~events:model.events in
        (Some loop, net_zero, None)
    | Churn ->
        let loop, counts = net_traced spans (Sims.net_setup ~seed) in
        (Some loop, counts, None)
    | Serve ->
        let sl =
          Serve_load.run_traced spans ~exe:daemon ~seed
            ~open_seconds:(0.25 *. seconds) ~closed_seconds:(0.1 *. seconds)
        in
        (None, net_zero, Some sl)
  in
  (* the probe is paper-link's own loop, so its output checks fail on
     exactly the seeds where paper-link's do *)
  let probe_sim () =
    cl_traced spans (Sims.cl_setup Sims.paper ~seed) ~events:Sims.paper.events
  in
  let sim_loop, sim_counts =
    match own_sim with
    | Some l when workload = Churn ->
        let p = probe_sim () in
        ( { l with
            start_s = p.start_s;
            start_flows_error = p.start_flows_error;
            failures = l.failures @ p.failures },
          l.counts )
    | Some l -> (l, l.counts)
    | None -> (probe_sim (), sim_zero)
  in
  let serve_loop, serve_own =
    match serve_loop with
    | Some sl -> (sl, true)
    | None ->
        ( Serve_load.run_traced spans ~exe:daemon ~seed
            ~open_seconds:probe_open_seconds ~closed_seconds:0.0,
          false )
  in
  if serve_loop.errors > 0 then fail o "serve: error replies or a failed daemon";
  fail_all o sim_loop.failures;
  let sh = sim_loop.shape in
  let replays =
    [ ("stats.exponential", Layers.exponential spans ~seed ~ops:4_000_000);
      ("stats.gaussian", Layers.gaussian spans ~seed ~ops:4_000_000);
      ("traffic.fire", Layers.fire spans ~seed ~ops:2_000_000 sh);
      ("core.observe", Layers.observe spans ~seed ~ops:2_000_000 sh);
      ("core.admissible", Layers.admissible spans ~seed ~ops:2_000_000 sh);
      ("sim.queue_hold", Layers.queue_hold spans ~seed ~ops:4_000_000 sh);
      ("sim.record", Layers.record spans ~seed ~ops:4_000_000 sh);
      ("net.exchange", Layers.exchange spans ~seed ~ops:2_000_000 sh) ]
  in
  List.iter (fun (n, v) -> add o (n ^ "_ns") "ns" v) replays;
  let attributed =
    List.fold_left (fun a (n, w) -> a +. (w *. List.assoc n replays)) 0.0 sim_loop.weights
  in
  add o "sim.start_s" "s" sim_loop.start_s;
  add o "sim.start_flows_error" "ratio" sim_loop.start_flows_error;
  add o "sim.step_ns" "ns" sim_loop.step_ns;
  add o "sim.attributed_ns" "ns" attributed;
  add o "sim.residual_ns" "ns" (sim_loop.step_ns -. attributed);
  List.iter (fun (n, u, v) -> add o n u v) (sim_counts @ net_counts);
  let sv = Serve_load.layers spans ~seed in
  add o "serve.encode_ns" "ns" sv.encode_ns;
  add o "serve.decode_ns" "ns" sv.decode_ns;
  add o "serve.decide_ns" "ns" sv.decide_ns;
  add o "serve.handle_frame_ns" "ns" sv.handle_frame_ns;
  add o "serve.measure_us" "us" sv.measure_us;
  let all_rpc = Array.concat (Array.to_list serve_loop.rpc_ns) in
  Array.iteri
    (fun k name ->
      let p50, p99, p999 = quantiles_us serve_loop.rpc_ns.(k) in
      add o ("serve.rpc_p50_us." ^ name) "us" p50;
      add o ("serve.rpc_p99_us." ^ name) "us" p99;
      add o ("serve.rpc_p999_us." ^ name) "us" p999)
    Serve_load.kind_names;
  let rpc_mean_us =
    float_of_int (Array.fold_left ( + ) 0 all_rpc)
    /. float_of_int (max 1 (Array.length all_rpc)) /. 1e3
  in
  add o "serve.transport_us" "us"
    (rpc_mean_us -. ((sv.handle_frame_ns +. sv.encode_ns +. sv.decode_ns) /. 1e3));
  let late = Array.copy serve_loop.late_us in
  Array.sort compare late;
  add o "serve.gen_late_p99_us" "us" (Clock.quantile_sorted late 0.99);
  add o "serve.gen_late_max_us" "us" late.(Array.length late - 1);
  let own_count x = if serve_own then float_of_int x else 0.0 in
  add o "serve.requests" "count" (own_count serve_loop.requests);
  add o "serve.errors" "count" (own_count serve_loop.errors);
  add o "serve.measure_passes" "count" (own_count serve_loop.measure_passes);
  add o "trace.overhead_pct" "%"
    (if serve_own then serve_loop.overhead_pct else sim_loop.overhead_pct);
  o.attempted <- (if serve_own then serve_loop.requests else sim_loop.ops);
  Printf.printf "attribution (ns/event): measured %.1f = attributed %.1f + residual %.1f\n"
    sim_loop.step_ns attributed (sim_loop.step_ns -. attributed);
  List.iter
    (fun (n, w) ->
      Printf.printf "  %-18s %8.4f ops/event x %7.1f ns = %7.1f ns\n" n w
        (List.assoc n replays) (w *. List.assoc n replays))
    sim_loop.weights;
  let dir = ".perfbench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/%s.spans.jsonl" dir run_id in
  Spans.write spans ~path;
  Printf.eprintf "perfbench: %d spans written to %s\n" spans.Spans.len path

(* ---------- output ---------- *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* A failed check fails every operation of the run. *)
let print_result o =
  let metrics = List.rev o.metrics in
  let bad = List.filter (fun (n, _, v) -> not (Float.is_finite v) || n = "") metrics in
  List.iter (fun (n, _, _) -> fail o (n ^ " is not finite")) bad;
  List.iter (fun f -> Printf.eprintf "perfbench: check failed: %s\n" f) (List.rev o.failures);
  let correct = o.failures = [] in
  let attempted = max 1 o.attempted in
  let body =
    String.concat ", "
      (List.map
         (fun (n, u, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
             (json_float (if Float.is_finite v then v else 0.0))
             u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted (if correct then 0 else attempted) body

let usage () =
  prerr_endline
    "usage: main.exe --workload (paper-link|wide-link|net-churn|serve-socket) \
     --seed N --seconds S --trace 0|1 --daemon PATH --hostcal PATH";
  exit 2

let () =
  let args = Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)) in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_opt k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload =
    match List.assoc_opt (get "workload") workloads with Some w -> w | None -> usage ()
  in
  let seed = int_opt "seed" and seconds = float_of_int (int_opt "seconds") in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let daemon = get "daemon" and hostcal = get "hostcal" in
  if seconds <= 0.0 then usage ();
  (* Run on one CPU, the first this process may use; the daemon inherits
     it.  An RPC is then two same-CPU context switches rather than two
     cross-CPU wake-ups, whose cost on a VM depends on where the
     scheduler placed each side (the open loop's spin-wait never delays
     the daemon: it spins only while no request is out), and the
     simulators cannot migrate between unequal vCPUs mid-run. *)
  Clock.pin (Clock.allowed_cpus ()).(0);
  (* a dead peer must surface as EPIPE on write, not kill the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* never leave a daemon or the host loop behind, whatever ends the run *)
  at_exit Serve_load.cleanup_all;
  at_exit Calib.cleanup_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let o = { metrics = []; attempted = 0; failures = [] } in
  (try
     if trace then traced o workload ~daemon ~seed ~seconds
     else
       match workload with
       | Paper -> cl_e2e o ~name:"paper-link" Sims.paper ~hostcal ~seed ~seconds
       | Wide -> cl_e2e o ~name:"wide-link" Sims.wide ~hostcal ~seed ~seconds
       | Churn -> net_e2e o ~hostcal ~seed ~seconds
       | Serve -> serve_e2e o ~daemon ~hostcal ~seed ~seconds
   with e ->
     Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
     Serve_load.cleanup_all ();
     exit 1);
  print_result o
