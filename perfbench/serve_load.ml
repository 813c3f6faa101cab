(* The serve-socket workload: the real [mbac_serve] daemon on a private
   Unix socket, driven over one connection by a Loadgen-style mix
   generated from the seed.  Phase A is open loop at a fixed arrival
   rate, each request timed from when it was due; phase B is
   [Loadgen.run] closed loop, in windows of about a second.  Host-speed
   samples (Calib's ping-pong) are interleaved with the set-ups and with
   both phases.  Afterwards the same seed is replayed through
   [Client.inproc] on a fresh engine, and the decisions, the summaries,
   the decision logs and the final stats must agree. *)

module P = Mbac_serve.Protocol
module Client = Mbac_serve.Client
module Engine = Mbac_serve.Engine
module Loadgen = Mbac_serve.Loadgen
module Spec = Mbac_serve.Spec
module Rng = Mbac_stats.Rng
module Sample = Mbac_stats.Sample
module CQ = Mbac_sim.Calendar_queue

(* The daemon's configuration, passed as [mbac_serve] flags: the
   defaults of [mbac_serve]/[mbac_loadgen] (offered load 1.0 on a
   capacity-100 link, inline measurement every 16th accounting call)
   with both criterion kinds. *)
let capacity = 100.0
let criteria = "ce:0.01,hoeffding:0.01:2.0"
let estimator = "ewma:100"
let measure_every = 16

let workload ~seed ~requests =
  { Loadgen.seed; requests; arrival_mean = 1.0; hold_mean = 100.0;
    load_mean = 1.0; load_std = 0.3; n_criteria = 2 }

let fresh_engine ?decision_log () =
  Engine.create ?decision_log
    { Engine.capacity; criteria = Spec.criteria_of_string criteria;
      estimator = Spec.estimator_of_string estimator; measure_every }

(* ---------- the daemon ---------- *)

type daemon = {
  pid : int;
  dir : string;
  sock : string;
  log : string;
  mutable client : Client.t option;
}

let tmp_root = ".perfbench_tmp"
let live : daemon list ref = ref []

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end;
  if Sys.file_exists tmp_root && Sys.readdir tmp_root = [||] then
    Sys.rmdir tmp_root

(* Reap [d], killing it if it has not exited within [grace] seconds;
   returns (exit code, peak RSS in KiB). *)
let reap ?(grace = 10.0) d =
  let t0 = Clock.now_ns () in
  let rec poll () =
    match Clock.wait4 d.pid ~nohang:true with
    | -1000, _ when Clock.seconds_since t0 < grace ->
        Unix.sleepf 1e-3;
        poll ()
    | -1000, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        Clock.wait4 d.pid ~nohang:false
    | r -> r
  in
  let r = poll () in
  live := List.filter (fun x -> x != d) !live;
  r

(* Socket paths are relative to the working directory the daemon
   shares with us, which keeps them short whatever the checkout path. *)
let spawn ~exe ~idx =
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o700;
  let dir = Printf.sprintf "%s/serve-%d-%d" tmp_root (Unix.getpid ()) idx in
  Sys.mkdir dir 0o700;
  let sock = dir ^ "/s.sock" and log = dir ^ "/decisions.jsonl" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err =
    Unix.openfile (dir ^ "/stderr.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let args =
    [| exe; "--socket"; sock; "--capacity"; Printf.sprintf "%g" capacity;
       "--criteria"; criteria; "--estimator"; estimator; "--measure-every";
       string_of_int measure_every; "--decision-log"; log |]
  in
  (* the daemon inherits this process's CPU (see main.ml) *)
  let pid = Unix.create_process exe args null null err in
  Unix.close null;
  Unix.close err;
  let d = { pid; dir; sock; log; client = None } in
  live := d :: !live;
  d

(* Poll for the socket file rather than leaning on [connect_unix]'s
   100 ms retry sleep, which would quantize the set-up time. *)
let connect ?(timeout = 10.0) d =
  let t0 = Clock.now_ns () in
  let give_up what =
    if Clock.seconds_since t0 > timeout then
      failwith (Printf.sprintf "mbac_serve: %s within %gs" what timeout)
  in
  while not (Sys.file_exists d.sock) do
    give_up "no socket";
    Unix.sleepf 2e-4
  done;
  let rec attempt () =
    match Client.connect_unix ~retries:0 ~path:d.sock () with
    | c -> c
    | exception Failure _ ->
        give_up "no connection";
        Unix.sleepf 2e-4;
        attempt ()
  in
  let c = attempt () in
  d.client <- Some c;
  c

(* Ask the daemon to stop, then reap it; it writes its decision log on
   the way out.  Falls back to a signal if the connection is gone. *)
let shutdown d =
  (match d.client with
  | Some c ->
      (try ignore (Client.rpc c P.Shutdown)
       with Failure _ | Unix.Unix_error _ ->
         (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
      Client.close c;
      d.client <- None
  | None -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  reap d

let cleanup_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap ~grace:0.0 d);
      try remove_dir d.dir with Sys_error _ -> ())
    !live

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---------- the Loadgen-style mix ---------- *)

(* Request kinds, for spans and per-kind latency. *)
let k_decide = 0
let k_log = 1
let k_add = 2
let k_subtract = 3
let kind_names = [| "decide"; "log"; "add"; "subtract" |]

(* The generator behind [Loadgen.run], step for step: the same derived
   streams and draw order, departures retired in time order before each
   arrival.  Owning the loop lets the open-loop phase pace each request
   at its due time and time it, which [Loadgen.run] cannot.  [send] is
   handed each request's kind and due (virtual) time. *)
type mix = {
  w : Loadgen.workload;
  arrivals : Rng.t;
  holds : Rng.t;
  loads : Rng.t;
  picks : Rng.t;
  deps : CQ.t;  (* departures: due time, payload = arrival index *)
  dep_load : Float.Array.t;
  decisions : Buffer.t;  (* '1' admit, '0' reject, per Decide *)
  mutable sent : int;
  mutable admitted : int;
  mutable departures : int;
  mutable errors : int;
}

let mix_create w =
  let d tag = Rng.derive ~seed:w.Loadgen.seed ~tag in
  { w; arrivals = d "loadgen/arrivals"; holds = d "loadgen/holds";
    loads = d "loadgen/loads"; picks = d "loadgen/criteria";
    deps = CQ.create (); dep_load = Float.Array.create (max 1 w.requests);
    decisions = Buffer.create (max 16 w.requests); sent = 0; admitted = 0;
    departures = 0; errors = 0 }

let mix_run m ~(send : int -> float -> P.request -> P.response) =
  let w = m.w in
  let t = ref 0.0 in
  let call kind due req =
    m.sent <- m.sent + 1;
    send kind due req
  in
  let ok = function P.Ok_reply -> true | _ -> m.errors <- m.errors + 1; false in
  for k = 0 to w.requests - 1 do
    t := !t +. Sample.exponential m.arrivals ~mean:w.arrival_mean;
    while (not (CQ.is_empty m.deps)) && CQ.min_time m.deps <= !t do
      let due = CQ.min_time m.deps and i = CQ.min_payload m.deps in
      CQ.drop_min m.deps;
      let load = Float.Array.get m.dep_load i in
      if ok (call k_subtract due (P.Subtract { load; now = due })) then
        m.departures <- m.departures + 1
    done;
    let load =
      Sample.lognormal_of_moments m.loads ~mean:w.load_mean ~std:w.load_std
    in
    let criterion = Rng.int m.picks w.n_criteria in
    let admit =
      match call k_decide !t (P.Decide { criterion; load; now = !t }) with
      | P.Decision { admit; _ } -> admit
      | _ -> m.errors <- m.errors + 1; false
    in
    Buffer.add_char m.decisions (if admit then '1' else '0');
    ignore (ok (call k_log !t (P.Log_decision { criterion; admit })));
    if admit then begin
      m.admitted <- m.admitted + 1;
      ignore (ok (call k_add !t (P.Add { load; now = !t })));
      let hold = Sample.exponential m.holds ~mean:w.hold_mean in
      Float.Array.set m.dep_load k load;
      CQ.push m.deps ~time:(!t +. hold) k
    end
  done

(* The fields of [Loadgen.summary] the mix reproduces (all but the
   closing Stats reply). *)
let mix_counts m =
  (m.sent, m.w.requests, m.admitted, m.w.requests - m.admitted, m.departures)

let summary_counts (s : Loadgen.summary) =
  (s.sent - 1, s.decides, s.admitted, s.rejected, s.departures)

(* ---------- open loop ---------- *)

(* Phase A's arrival rate, per wall-clock second.  With ~3.4 requests
   per arrival this is ~26k requests/s, about a third of the ~80k/s one
   closed-loop connection sustains. *)
let open_loop_rate = 7_500.0

type open_loop = {
  decide_from_due_us : float array;  (* per Decide, reply - due *)
  late_us : float array;  (* per paced request, send - due *)
  rpc_ns : int array array;  (* per kind: send -> reply *)
  mix : mix;
}

(* Host-speed samples: a tenth of the measured time, about once a
   second. *)
let sample_every_ns = 1_000_000_000
let sample_share = 10

(* Run [arrivals] arrivals of the mix open loop over [client]: each
   request waits for its due time (virtual time scaled by the arrival
   rate) and is sent then or, if the generator is behind, at once.
   With [calib] the loop pauses about once a second, before a paced
   request, for a host-speed sample; due times move on by the pause. *)
let open_loop ?spans ?calib client ~seed ~arrivals =
  let m = mix_create (workload ~seed ~requests:arrivals) in
  let scale = 1e9 /. open_loop_rate in
  let decide = Array.make arrivals 0.0 in
  let nd = ref 0 in
  let late = ref [] in
  let rpc = Array.init 4 (fun _ -> ref []) in
  let t0 = ref (Clock.now_ns () + 1_000_000) in
  let next_sample = ref (!t0 + sample_every_ns) in
  let last_due = ref 0 in
  let send kind due req =
    (* Log/Add follow their Decide at once: they share its due time,
       which has passed, so they are not paced *)
    let paced = kind = k_decide || kind = k_subtract in
    (match calib with
    | Some cal when paced && Clock.now_ns () >= !next_sample ->
        let p0 = Clock.now_ns () in
        Calib.sample cal ~ns:(sample_every_ns / sample_share);
        let p1 = Clock.now_ns () in
        t0 := !t0 + (p1 - p0);
        next_sample := p1 + sample_every_ns
    | _ -> ());
    let due_ns = !t0 + int_of_float (due *. scale) in
    if paced then begin
      last_due := due_ns;
      let ahead = due_ns - Clock.now_ns () in
      if ahead > 2_000_000 then Unix.sleepf (float_of_int (ahead - 1_000_000) *. 1e-9);
      while Clock.now_ns () < due_ns do () done
    end;
    let s = Clock.now_ns () in
    let r = Client.rpc client req in
    let e = Clock.now_ns () in
    if paced then late := float_of_int (s - due_ns) /. 1e3 :: !late;
    if kind = k_decide then begin
      decide.(!nd) <- float_of_int (e - !last_due) /. 1e3;
      incr nd
    end;
    rpc.(kind) := (e - s) :: !(rpc.(kind));
    (match spans with
    | Some sp -> ignore (Spans.record sp ~name:("serve.rpc." ^ kind_names.(kind)) ~start:s ~stop:e)
    | None -> ());
    r
  in
  mix_run m ~send;
  { decide_from_due_us = Array.sub decide 0 !nd;
    late_us = Array.of_list !late;
    rpc_ns = Array.map (fun l -> Array.of_list !l) rpc;
    mix = m }

(* Closed loop with the mix (each request sent when the previous reply
   is in), optionally with a span per RPC. *)
let closed_loop ?spans client ~seed ~requests =
  let m = mix_create (workload ~seed ~requests) in
  let send kind _due req =
    match spans with
    | None -> Client.rpc client req
    | Some sp ->
        let s = Clock.now_ns () in
        let r = Client.rpc client req in
        ignore
          (Spans.record sp ~name:("serve.rpc." ^ kind_names.(kind)) ~start:s
             ~stop:(Clock.now_ns ()));
        r
  in
  mix_run m ~send;
  m

(* ---------- end-to-end run ---------- *)

(* Phase B's decisions: about half the run at the ~23k decisions/s one
   closed-loop connection sustains, in windows of about a second.
   Phase A gets 0.3 of the run: its p50 over ~7.10^4 decides repeats
   better than throughput, which needs the longer phase. *)
let closed_loop_decides_per_s = 23_000.0

(* Phase B's windows: each a [Loadgen.run] of its own seed on a freshly
   initialized engine. *)
let closed_windows ~seed ~decides =
  let k = max 1 (int_of_float (Float.round (float_of_int decides /. closed_loop_decides_per_s))) in
  List.init k (fun i -> workload ~seed:((seed lsl 8) + i) ~requests:(decides / k))

(* A set-up (spawn, socket, connect, Initialize) takes a few
   milliseconds, so many cost little; each is followed by a host-speed
   sample as long again. *)
let setup_reps = 41

(* Figures as measured and the host-speed factors (Calib) of the
   set-ups and of each phase; the end-to-end metrics are scaled by
   them, as the simulators' are. *)
type e2e = {
  setup_s : float;
  requests_per_s : float;
  decide_p50_us : float;
  host_setup : float;
  host_open : float;
  host_closed : float;
  daemon_rss_mb : float;
  attempted : int;
  failed : int;
  failures : string list;
}

let initialize c =
  match Client.rpc c (P.Initialize { capacity }) with
  | P.Ok_reply -> ()
  | _ -> failwith "Initialize refused"

(* Set-up as a user pays it: spawn the daemon, wait for its socket,
   connect, Initialize. *)
let setup ~exe ~idx =
  let t0 = Clock.now_ns () in
  let d = spawn ~exe ~idx in
  let c = connect d in
  initialize c;
  (d, c, Clock.seconds_since t0)

(* Repeat the set-up and keep the last daemon; the others are shut
   down (and reaped) before the next spawns. *)
let setup_median ~exe ~calib =
  let times = Array.make setup_reps 0.0 in
  let rec go i =
    let d, c, s = setup ~exe ~idx:i in
    times.(i) <- s;
    Calib.sample calib ~ns:(int_of_float (s *. 1e9));
    if i = setup_reps - 1 then (d, c)
    else begin
      ignore (shutdown d);
      remove_dir d.dir;
      go (i + 1)
    end
  in
  let d, c = go 0 in
  (d, c, Clock.median times)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let run_phases ~d ~c ~calib ~paced ~setup_s ~seed ~seconds =
  let failures = ref [] in
  let need ok what = if not ok then failures := what :: !failures in
  let seed_a = 2 * seed and seed_b = (2 * seed) + 1 in
  let host_setup = Calib.factor calib in
  Calib.reset calib;
  let arrivals = int_of_float (open_loop_rate *. 0.3 *. seconds) in
  let a = open_loop ~calib:paced c ~seed:seed_a ~arrivals in
  let host_open = Calib.factor paced in
  let wbs =
    closed_windows ~seed:seed_b
      ~decides:(int_of_float (closed_loop_decides_per_s *. 0.5 *. seconds))
  in
  let tb = ref 0 in
  let sbs =
    List.map
      (fun w ->
        initialize c;
        let t0 = Clock.now_ns () in
        let s = Loadgen.run c w in
        let ns = Clock.now_ns () - t0 in
        tb := !tb + ns;
        Calib.sample calib ~ns:(ns / sample_share);
        s)
      wbs
  in
  let host_closed = Calib.factor calib in
  let final = Client.rpc c P.Stats in
  let decides = arrivals + sum (fun (w : Loadgen.workload) -> w.requests) wbs in
  let sent_b = sum (fun (s : Loadgen.summary) -> s.sent) sbs in
  let admitted_b = sum (fun (s : Loadgen.summary) -> s.admitted) sbs in
  (* Initialize, phase A, an Initialize per window, final Stats *)
  let own = 1 + a.mix.sent + List.length wbs + 1 in
  let attempted = own + sent_b in
  let last = List.nth sbs (List.length sbs - 1) in
  let code, rss_kb = shutdown d in
  need (code = 0) (Printf.sprintf "mbac_serve exited with %d" code);
  let log = read_file d.log in
  remove_dir d.dir;
  need (a.mix.errors = 0) (Printf.sprintf "%d error replies" a.mix.errors);
  (match final with
  | P.Stats_reply { flows; capacity = c; requests; decisions; admits; _ } ->
      need
        (flows = last.admitted - last.departures
        && c = capacity && requests = attempted && decisions = decides
        && admits = a.mix.admitted + admitted_b)
        "final Stats disagrees with the client's own counts"
  | _ -> need false "no final Stats reply");
  (* the same seed through the in-process transport, on a fresh engine *)
  let buf = Buffer.create (1 lsl 20) in
  let ic = Client.inproc (fresh_engine ~decision_log:buf ()) in
  initialize ic;
  let ra = closed_loop ic ~seed:seed_a ~requests:arrivals in
  need
    (Buffer.contents ra.decisions = Buffer.contents a.mix.decisions)
    "open-loop decisions differ from the in-process replay";
  let sbs' =
    List.map
      (fun w ->
        initialize ic;
        Loadgen.run ic w)
      wbs
  in
  need (sbs' = sbs) "Loadgen summaries differ from the in-process replay";
  need (Client.rpc ic P.Stats = final) "final Stats differs from the in-process replay";
  need (Buffer.contents buf = log) "decision log differs from the in-process replay";
  (* the mix is Loadgen's generator: on an engine with the same history
     it sends the same requests and gets the same answers *)
  let mc = Client.inproc (fresh_engine ()) in
  initialize mc;
  ignore (closed_loop mc ~seed:seed_a ~requests:arrivals);
  let rbs =
    List.map
      (fun (w : Loadgen.workload) ->
        initialize mc;
        closed_loop mc ~seed:w.seed ~requests:w.requests)
      wbs
  in
  need
    (List.map mix_counts rbs = List.map summary_counts sbs')
    "mix diverges from Loadgen.run";
  Printf.printf "serve-socket seed=%d decision-log md5=%s decides=%d admitted=%d windows=%d\n"
    seed (Digest.to_hex (Digest.string log)) decides (a.mix.admitted + admitted_b)
    (List.length wbs);
  let failures = List.rev !failures in
  { setup_s;
    requests_per_s = float_of_int sent_b /. (float_of_int !tb *. 1e-9);
    decide_p50_us = Clock.median a.decide_from_due_us;
    host_setup; host_open; host_closed;
    daemon_rss_mb = Clock.mb_of_kb rss_kb;
    attempted;
    failed = (if failures = [] then 0 else attempted);
    failures }

(* A lost reply or protocol failure ends the run as failed, not as a
   crash: the daemon is stopped and every metric reads NaN. *)
let run_e2e ~exe ~hostcal ~seed ~seconds =
  let calib = Calib.create ~exe:hostcal Calib.Ping_pong in
  let paced = Calib.create ~exe:hostcal Calib.Paced in
  let d, c, setup_s = setup_median ~exe ~calib in
  let failed msg =
    ignore (shutdown d);
    (try remove_dir d.dir with Sys_error _ -> ());
    { setup_s; requests_per_s = nan; decide_p50_us = nan; host_setup = nan;
      host_open = nan; host_closed = nan; daemon_rss_mb = nan; attempted = 1;
      failed = 1; failures = [ msg ] }
  in
  Fun.protect ~finally:(fun () -> Calib.close calib; Calib.close paced) @@ fun () ->
  try run_phases ~d ~c ~calib ~paced ~setup_s ~seed ~seconds with
  | Failure msg | Sys_error msg -> failed msg
  | Unix.Unix_error (e, fn, _) -> failed (fn ^ ": " ^ Unix.error_message e)

(* ---------- traced run and probe ---------- *)

type serve_loop = {
  rpc_ns : int array array;  (* per kind, send -> reply, open loop *)
  late_us : float array;
  requests : int;  (* requests the daemon served *)
  errors : int;
  measure_passes : int;
  overhead_pct : float;  (* traced vs untraced closed loop; nan if not run *)
}

(* Traced: the open-loop phase with a span per RPC, then for the
   tracing overhead the closed loop in sixteen windows, each a seed of
   its own on a freshly initialized engine, alternately bare and with a
   span per RPC: adjacent windows share the host's speed. *)
let run_traced spans ~exe ~seed ~open_seconds ~closed_seconds =
  let d, c, _ = Spans.with_span spans "serve.setup" (fun () -> (setup ~exe ~idx:0, 0)) in
  let arrivals = int_of_float (open_loop_rate *. open_seconds) in
  let a = open_loop ~spans c ~seed:(2 * seed) ~arrivals in
  let overhead_pct, closed_errors =
    if closed_seconds <= 0.0 then (nan, 0)
    else begin
      let windows = 16 in
      let requests = int_of_float (2.0 *. closed_loop_decides_per_s *. closed_seconds) / windows in
      (* ns and requests per kind of window: 0 bare, 1 traced *)
      let ns = [| 0; 0 |] and sent = [| 0; 0 |] and errors = ref 0 in
      for j = 0 to windows - 1 do
        let kind = j land 1 and seed = ((((2 * seed) + 1) lsl 8) + j) in
        initialize c;
        let t0 = Clock.now_ns () in
        let m =
          if kind = 0 then closed_loop c ~seed ~requests
          else closed_loop ~spans c ~seed ~requests
        in
        ns.(kind) <- ns.(kind) + (Clock.now_ns () - t0);
        sent.(kind) <- sent.(kind) + m.sent;
        errors := !errors + m.errors
      done;
      let per kind = float_of_int ns.(kind) /. float_of_int sent.(kind) in
      (((per 1 /. per 0) -. 1.0) *. 100.0, !errors)
    end
  in
  let final = Client.rpc c P.Stats in
  let code, _ = shutdown d in
  remove_dir d.dir;
  let requests, passes =
    match final with
    | P.Stats_reply { requests; updates; _ } -> (requests, updates)
    | _ -> (0, 0)
  in
  let errors = a.mix.errors + closed_errors + if code = 0 then 0 else 1 in
  { rpc_ns = a.rpc_ns; late_us = a.late_us; requests; errors;
    measure_passes = passes; overhead_pct }

(* ---------- in-process layer replays ---------- *)

(* The mix's request/response frames, recorded through the in-process
   transport. *)
let record_frames ~seed ~arrivals =
  let c = Client.inproc (fresh_engine ()) in
  let reqs = ref [] and resps = ref [] in
  let m = mix_create (workload ~seed ~requests:arrivals) in
  mix_run m ~send:(fun _ _ req ->
      let r = Client.rpc c req in
      reqs := req :: !reqs;
      resps := r :: !resps;
      r);
  (Array.of_list (List.rev !reqs), Array.of_list (List.rev !resps))

let encode_all encode items =
  let b = Buffer.create 4096 in
  let offs = Array.make (Array.length items + 1) 0 in
  Array.iteri
    (fun i x ->
      encode b x;
      offs.(i + 1) <- Buffer.length b)
    items;
  (Buffer.to_bytes b, offs)

type serve_layers = {
  encode_ns : float;  (* client: request frame *)
  decode_ns : float;  (* client: response frame *)
  handle_frame_ns : float;  (* server: decode, engine, encode *)
  decide_ns : float;
  measure_us : float;
}

let layers spans ~seed =
  let reqs, resps = record_frames ~seed ~arrivals:40_000 in
  let n = Array.length reqs in
  let passes = 5 in
  let b = Buffer.create 256 in
  let encode_ns =
    Layers.timed spans "serve.encode" ~ops:(passes * n) (fun k ->
        for i = 0 to k - 1 do
          Buffer.clear b;
          P.encode_request b (Array.unsafe_get reqs (i mod n))
        done)
  in
  let rbytes, roffs = encode_all P.encode_response resps in
  let decode_ns =
    Layers.timed spans "serve.decode" ~ops:(passes * n) (fun k ->
        for i = 0 to k - 1 do
          let j = i mod n in
          match P.decode_response rbytes ~pos:roffs.(j) ~avail:(roffs.(j + 1) - roffs.(j)) with
          | Ok _ -> ()
          | Error _ -> failwith "decode_response failed on a recorded frame"
        done)
  in
  let qbytes, qoffs = encode_all P.encode_request reqs in
  let out = Buffer.create 256 in
  let replay engine =
    for j = 0 to n - 1 do
      Buffer.clear out;
      match
        Mbac_serve.Server.handle_frame engine qbytes ~pos:qoffs.(j)
          ~avail:(qoffs.(j + 1) - qoffs.(j)) out
      with
      | Ok _ -> ()
      | Error _ -> failwith "handle_frame failed on a recorded frame"
    done
  in
  replay (fresh_engine ());
  let engine = fresh_engine () in
  let t0 = Clock.now_ns () in
  Spans.with_span spans "serve.handle_frame" (fun () -> (replay engine, n));
  let handle_frame_ns = float_of_int (Clock.now_ns () - t0) /. float_of_int n in
  let decides =
    Array.of_list
      (List.filter_map
         (function P.Decide { criterion; load; _ } -> Some (criterion, load) | _ -> None)
         (Array.to_list reqs))
  in
  let nd = Array.length decides in
  let decide_ns =
    Layers.timed spans "serve.decide" ~ops:(passes * nd) (fun k ->
        for i = 0 to k - 1 do
          let criterion, load = Array.unsafe_get decides (i mod nd) in
          ignore (Engine.decide engine ~criterion ~load)
        done)
  in
  let now = ref 1e6 in
  let measure_ns =
    Layers.timed spans "serve.measure" ~ops:20_000 (fun k ->
        for _ = 1 to k do
          now := !now +. 1.0;
          Engine.run_measurement engine ~now:!now
        done)
  in
  { encode_ns; decode_ns; handle_frame_ns; decide_ns; measure_us = measure_ns /. 1e3 }
