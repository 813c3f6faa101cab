(* The serving engine: fixed-point accounting and its overflow refusal,
   bootstrap and measured estimates, initialize semantics, wire-input
   validation through [handle], decision-log determinism across
   transports, and the streamed decision log.  Then the client:
   pipelined posts in-process, and over a real socket the post contract,
   the batch budget, peers that hang up on either side, concurrent
   clients through the daemon lock, the wall-clock measurement timer,
   and a daemon out of descriptors. *)

open Test_util
module E = Mbac_serve.Engine
module P = Mbac_serve.Protocol

let config ?(capacity = 100.0) ?(measure_every = 0) () =
  { E.capacity;
    criteria =
      [ E.Gaussian { cname = "ce:0.01"; p_ce = 0.01 };
        E.Hoeffding { cname = "hoeffding:0.01:2.0"; p_ce = 0.01; peak = 2.0 } ];
    estimator = Mbac.Estimator.memoryless ();
    measure_every }

(* [E.decide] and the counts its reply carries beside the verdict *)
type decision = { admit : bool; admissible : int; flows : int }

let decide e ~criterion ~load =
  let admit = E.decide e ~criterion ~load in
  { admit; admissible = E.admissible e ~criterion; flows = (E.stats e).flows }

(* ---------- fixed-point accounting ---------- *)

let add e ~load ~now = if not (E.add e ~load ~now) then Alcotest.fail "add refused"

let subtract e ~load ~now =
  if not (E.subtract e ~load ~now) then Alcotest.fail "subtract refused"

let test_accounting_roundtrip () =
  let e = E.create (config ()) in
  (* loads that are not multiples of 2^-20: add then subtract must
     cancel exactly because both paths quantize identically *)
  let loads = [ 0.1; 0.3; 1.7; 2.9999999; 0.123456789 ] in
  List.iter (fun load -> add e ~load ~now:0.0) loads;
  let s = E.stats e in
  Alcotest.(check int) "flows" (List.length loads) s.E.flows;
  check_close ~tol:1e-5 "admitted load"
    (List.fold_left ( +. ) 0.0 loads)
    s.admitted_load;
  List.iter (fun load -> subtract e ~load ~now:1.0) loads;
  let s = E.stats e in
  Alcotest.(check int) "flows back to zero" 0 s.E.flows;
  check_close_abs "load back to exactly zero" 0.0 s.admitted_load

(* Four flows at the load cap fit the 63-bit sum of squares; a fifth
   would wrap it negative, and every later measurement pass skipped its
   cross-section.  The refused Add must leave no trace: the engine goes
   on exactly like a twin that never saw it. *)
let test_add_overflow_refused () =
  let e = E.create (config ~capacity:1e7 ~measure_every:1 ()) in
  let twin = E.create (config ~capacity:1e7 ~measure_every:1 ()) in
  let both load = add e ~load ~now:0.0; add twin ~load ~now:0.0 in
  let refused load =
    match E.handle e (P.Add { load; now = 0.0 }) with
    | P.Error_reply { code = 3; _ } -> ()
    | _ -> Alcotest.failf "an Add of %g past max_int must answer code 3" load
  in
  for _ = 1 to 4 do both 1e6 done;
  refused 1e6;
  (* ~4.17e17 fixed-point units of headroom are left: a flow of 630,000
     (square ~4.16e17) fits, one of 632,000 (~4.19e17) does not *)
  refused 632_000.0;
  both 630_000.0;
  for _ = 1 to 2_000 do both 1.0 done;
  let s = E.stats e and s' = E.stats twin in
  Alcotest.(check int) "flows" 2_005 s.E.flows;
  Alcotest.(check int) "flows as the twin" s'.E.flows s.E.flows;
  Alcotest.(check (float 0.0)) "admitted load as the twin" s'.admitted_load
    s.admitted_load;
  Alcotest.(check int) "measurement passes as the twin" s'.E.updates
    s.E.updates;
  for criterion = 0 to 1 do
    let d = decide e ~criterion ~load:1.0
    and d' = decide twin ~criterion ~load:1.0 in
    Alcotest.(check int) "admissible count as the twin" d'.admissible
      d.admissible;
    Alcotest.(check bool) "the estimate still follows the flows" true
      (d.admissible > s.E.flows)
  done

(* A departure no Add matched would take the flow count and the sums
   negative (the wire's u32 flows then read 4294967295).  It is refused
   with code 3 and leaves every counter as it was, whichever of the
   three would go below zero.  Through the in-process client, so the
   replies cross the wire codec. *)
let test_subtract_unmatched_refused () =
  let e = E.create (config ~measure_every:1 ()) in
  let c = Mbac_serve.Client.inproc e in
  let refused load =
    match Mbac_serve.Client.rpc c (P.Subtract { load; now = 0.0 }) with
    | P.Error_reply { code = 3; _ } -> ()
    | _ ->
        Alcotest.failf "a Subtract of %g no Add matched must answer code 3"
          load
  in
  let stats () =
    match Mbac_serve.Client.rpc c P.Stats with
    | P.Stats_reply { flows; admitted_load; updates; _ } ->
        (flows, admitted_load, updates)
    | _ -> Alcotest.fail "Stats must answer Stats_reply"
  in
  refused 1.0;
  (* a flow of load 0 leaves the sums as they are: only the flow count
     refuses it *)
  refused 0.0;
  Alcotest.(check (triple int (float 0.0) int)) "a fresh engine stays empty"
    (0, 0.0, 0) (stats ());
  add e ~load:1.0 ~now:0.0;
  (* one flow admitted: the load sum cannot give 2 *)
  refused 2.0;
  add e ~load:1.0 ~now:0.0;
  (* loads 1 and 1: the sum gives 1.5, the sum of squares (2) cannot
     give 2.25 *)
  refused 1.5;
  Alcotest.(check (triple int (float 0.0) int)) "refusals change no counter"
    (2, 2.0, 2) (stats ());
  subtract e ~load:1.0 ~now:0.0;
  subtract e ~load:1.0 ~now:0.0;
  Alcotest.(check (triple int (float 0.0) int)) "matched departures still apply"
    (0, 0.0, 4) (stats ());
  Mbac_serve.Client.close c

(* ---------- bootstrap and published estimates ---------- *)

let test_bootstrap_one_at_a_time () =
  let e = E.create (config ()) in
  (* no measurement yet: M = flows + 1, so each decide sees headroom of
     exactly one flow *)
  let d = decide e ~criterion:0 ~load:1.0 in
  Alcotest.(check bool) "first flow admitted" true d.admit;
  Alcotest.(check int) "bootstrap M = n+1" 1 d.admissible;
  add e ~load:1.0 ~now:0.0;
  let d = decide e ~criterion:0 ~load:1.0 in
  Alcotest.(check bool) "second flow admitted" true d.admit;
  Alcotest.(check int) "bootstrap M tracks n" 2 d.admissible

let test_bootstrap_capacity_backstop () =
  let e = E.create (config ~capacity:10.0 ()) in
  let d = decide e ~criterion:0 ~load:11.0 in
  Alcotest.(check bool) "bootstrap still checks capacity headroom" false
    d.admit

let test_published_estimate_drives_decide () =
  let e = E.create (config ~capacity:100.0 ()) in
  for _ = 1 to 50 do
    add e ~load:1.0 ~now:0.0
  done;
  E.run_measurement e ~now:0.0;
  (* memoryless estimator over 50 identical unit flows: mu = 1, sigma = 0
     for the Gaussian criterion -> M = floor(capacity / mu) = 100 *)
  let d = decide e ~criterion:0 ~load:1.0 in
  Alcotest.(check bool) "admitted under published estimate" true d.admit;
  Alcotest.(check int) "M = capacity / mu for sigma = 0" 100 d.admissible;
  Alcotest.(check int) "flows reported" 50 d.flows;
  (* the Hoeffding criterion at the same state is strictly tighter *)
  let dh = decide e ~criterion:1 ~load:1.0 in
  Alcotest.(check bool) "hoeffding M below gaussian M" true
    (dh.admissible < d.admissible)

let test_measure_every_cadence () =
  let e = E.create (config ~measure_every:4 ()) in
  for i = 1 to 12 do
    add e ~load:1.0 ~now:(float_of_int i)
  done;
  let s = E.stats e in
  Alcotest.(check int) "one pass per 4 accounting calls" 3 s.E.updates

let test_initialize_resets () =
  let e = E.create (config ~capacity:100.0 ()) in
  for _ = 1 to 10 do
    add e ~load:1.0 ~now:0.0
  done;
  E.run_measurement e ~now:0.0;
  E.initialize e ~capacity:5.0;
  let s = E.stats e in
  Alcotest.(check int) "flows cleared" 0 s.E.flows;
  check_close_abs "load cleared" 0.0 s.admitted_load;
  check_close "capacity retargeted" 5.0 s.E.capacity;
  (* estimator history must be gone too: back to bootstrap one-at-a-time *)
  let d = decide e ~criterion:0 ~load:1.0 in
  Alcotest.(check int) "back to bootstrap M = n+1" 1 d.admissible;
  let d = decide e ~criterion:0 ~load:6.0 in
  Alcotest.(check bool) "new capacity enforced" false d.admit

(* ---------- wire-input validation ---------- *)

let test_handle_validation () =
  let e = E.create (config ()) in
  let err code = function
    | P.Error_reply { code = c; _ } -> c = code
    | _ -> false
  in
  Alcotest.(check bool) "bad capacity -> code 1" true
    (err 1 (E.handle e (P.Initialize { capacity = nan })));
  Alcotest.(check bool) "criterion out of range -> code 2" true
    (err 2 (E.handle e (P.Decide { criterion = 2; load = 1.0; now = 0.0 })));
  Alcotest.(check bool) "negative load -> code 3" true
    (err 3 (E.handle e (P.Add { load = -1.0; now = 0.0 })));
  Alcotest.(check bool) "infinite load -> code 3" true
    (err 3 (E.handle e (P.Decide { criterion = 0; load = infinity; now = 0.0 })));
  Alcotest.(check bool) "oversized load -> code 3" true
    (err 3 (E.handle e (P.Subtract { load = 1e7; now = 0.0 })));
  match E.handle e P.Stats with
  | P.Stats_reply { requests; _ } ->
      Alcotest.(check int) "every request counted, including rejected" 6
        requests
  | _ -> Alcotest.fail "Stats must answer Stats_reply"

(* ---------- decision-log determinism ---------- *)

let run_loadgen () =
  let log = Buffer.create 1024 in
  let engine = E.create ~decision_log:log (config ~measure_every:16 ()) in
  let client = Mbac_serve.Client.inproc engine in
  let summary =
    Mbac_serve.Loadgen.run client
      { Mbac_serve.Loadgen.seed = 42; requests = 500; arrival_mean = 1.0;
        hold_mean = 50.0; load_mean = 1.0; load_std = 0.3; n_criteria = 2 }
  in
  Mbac_serve.Client.close client;
  (summary, Buffer.contents log)

let test_loadgen_replay_identical () =
  let s1, log1 = run_loadgen () in
  let s2, log2 = run_loadgen () in
  Alcotest.(check string) "decision logs byte-identical" log1 log2;
  Alcotest.(check int) "same admit count" s1.Mbac_serve.Loadgen.admitted
    s2.Mbac_serve.Loadgen.admitted;
  Alcotest.(check int) "one log line per decide" 500
    (List.length
       (String.split_on_char '\n' log1 |> List.filter (fun l -> l <> "")))

(* ---------- streamed decision log ---------- *)

(* The line as the engine first rendered it, through a JSON tree: the
   oracle for the direct renderer. *)
let json_line ~seq ~name ~admit ~flows =
  Mbac_telemetry.Json.(
    obj
      [ ("seq", int seq); ("criterion", string name); ("admit", bool admit);
        ("flows", int flows) ])
  ^ "\n"

let arb_log_line =
  let open QCheck.Gen in
  let int = oneof [ int; oneofl [ min_int; max_int; 0; -1; 9; 10; -10 ] ] in
  let name_char =
    frequency
      [ (3, printable);
        (2, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127' ]);
        (1, char) ]
  in
  QCheck.make
    ~print:(fun (seq, name, admit, flows) ->
      Printf.sprintf "seq=%d name=%S admit=%b flows=%d" seq name admit flows)
    (quad int (string_size ~gen:name_char (0 -- 16)) bool int)

let prop_log_line (seq, name, admit, flows) =
  let b = Buffer.create 64 in
  E.Log_line.add b ~seq (E.Log_line.criterion name) ~admit ~flows;
  Buffer.contents b = json_line ~seq ~name ~admit ~flows

(* A file sink holds back at most one staging buffer while the engine is
   live, and after [close_log] the file is the in-memory log. *)
let test_file_log_streams () =
  let replay engine =
    let client = Mbac_serve.Client.inproc engine in
    ignore
      (Mbac_serve.Loadgen.run client
         { Mbac_serve.Loadgen.seed = 7; requests = 3000; arrival_mean = 1.0;
           hold_mean = 50.0; load_mean = 1.0; load_std = 0.3; n_criteria = 2 });
    Mbac_serve.Client.close client
  in
  let mem = Buffer.create 1024 in
  replay (E.create ~decision_log:mem (config ~measure_every:16 ()));
  let path = Filename.temp_file "mbac_decisions" ".jsonl" in
  let engine = E.create ~decision_log_file:path (config ~measure_every:16 ()) in
  replay engine;
  let live = (Unix.stat path).Unix.st_size in
  E.close_log engine;
  let logged = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let total = Buffer.length mem in
  Alcotest.(check bool) "the replay logs more than one staging buffer" true
    (total > E.log_staging_bytes);
  Alcotest.(check bool) "lines reach the file while the engine is live" true
    (live > 0);
  Alcotest.(check bool) "at most one staging buffer held back" true
    (total - live <= E.log_staging_bytes);
  Alcotest.(check string) "the closed file is the in-memory log"
    (Buffer.contents mem) logged

(* A file that cannot take the staged lines (a full device) fails the
   Log_decision that meets the error with a typed reply, not an
   exception out of [handle]. *)
let test_file_log_write_error () =
  if Sys.file_exists "/dev/full" then begin
    let e = E.create ~decision_log_file:"/dev/full" (config ()) in
    let replies =
      List.init 2000 (fun _ ->
          E.handle e (P.Log_decision { criterion = 0; admit = true }))
    in
    Alcotest.(check bool) "lines are staged before the first write" true
      (List.hd replies = P.Ok_reply);
    Alcotest.(check bool) "the failed write is answered with code 4" true
      (List.exists
         (function P.Error_reply { code = 4; _ } -> true | _ -> false)
         replies)
  end

(* ---------- pipelining ---------- *)

module C = Mbac_serve.Client

(* As in [Loadgen.run], a Subtract retires a flow the stream admitted
   since the last Initialize (here the latest one still in); a Subtract
   with no flow to retire is dropped. *)
let matched_departures steps =
  let rec go admitted acc = function
    | [] -> List.rev acc
    | ((P.Add { load; _ }, _) as step) :: rest ->
        go (load :: admitted) (step :: acc) rest
    | (P.Subtract { now; _ }, post) :: rest -> (
        match admitted with
        | load :: admitted ->
            go admitted ((P.Subtract { load; now }, post) :: acc) rest
        | [] -> go admitted acc rest)
    | ((P.Initialize _, _) as step) :: rest -> go [] (step :: acc) rest
    | step :: rest -> go admitted (step :: acc) rest
  in
  go [] [] steps

(* A random request stream, each postable request marked post or rpc:
   loads stay valid and departures match admissions, so every posted
   request is answered [Ok_reply].  A third of the streams post almost
   everything, past the client's 16 KiB batch budget between two
   rpcs. *)
let arb_pipeline =
  let open QCheck.Gen in
  let load = float_range 0.0 5.0 and now = float_range 0.0 1e3 in
  let postable =
    [ (6, map2 (fun load now -> P.Add { load; now }) load now);
      (4, map2 (fun load now -> P.Subtract { load; now }) load now);
      (6, map2 (fun criterion admit -> P.Log_decision { criterion; admit })
            (0 -- 1) bool);
      (1, map (fun capacity -> P.Initialize { capacity })
            (float_range 10.0 100.0)) ]
  in
  let rpc_only =
    [ (4, map3 (fun criterion load now -> P.Decide { criterion; load; now })
            (0 -- 1) load now);
      (1, return P.Stats) ]
  in
  let stream size reqs post =
    map matched_departures
      (list_size size
         (pair (frequency reqs) (frequencyl [ (post, true); (1, false) ])))
  in
  QCheck.make
    ~print:(fun l -> Printf.sprintf "%d requests" (List.length l))
    (frequency
       [ (1, stream (0 -- 50) (postable @ rpc_only) 4);
         (1, stream (0 -- 2_000) (postable @ rpc_only) 4);
         (1, stream (1_500 -- 3_000) postable 1_000) ])

let postable = function
  | P.Initialize _ | P.Add _ | P.Subtract _ | P.Log_decision _ -> true
  | P.Decide _ | P.Stats | P.Shutdown -> false

(* Posting changes when replies are read, never what the engine sees:
   the replies to the rpcs, the final Stats and the decision log equal a
   run with one rpc per request. *)
let prop_pipeline steps =
  let run pipelined =
    let log = Buffer.create 1024 in
    let c = C.inproc (E.create ~decision_log:log (config ~measure_every:3 ())) in
    let replies =
      List.filter_map
        (fun (req, post) ->
          if pipelined && post && postable req then (C.post c req; None)
          else Some (C.rpc c req))
        steps
    in
    let final = C.rpc c P.Stats in
    C.close c;
    (replies, final, Buffer.contents log)
  in
  let replies, final, log = run true in
  let replies', final', log' = run false in
  let rpc_replies =
    List.concat
      (List.map2
         (fun (req, post) r -> if post && postable req then [] else [ r ])
         steps replies')
  in
  replies = rpc_replies && final = final' && log = log'

let test_post_refuses_round_trip_requests () =
  let c = C.inproc (E.create (config ())) in
  List.iter
    (fun req ->
      match C.post c req with
      | () -> Alcotest.failf "post %s must be refused" (P.request_name req)
      | exception Invalid_argument _ -> ())
    [ P.Decide { criterion = 0; load = 1.0; now = 0.0 }; P.Stats; P.Shutdown ];
  C.close c

(* ---------- the fixed point at its edge ---------- *)

(* [valid_load]'s cap, 1e6, is the largest load a frame may carry.
   Rounding to 2^-20 units is within 2^-21 of the load there too; the
   square, l^2 * 2^20 ~ 2^59.8, is past 2^53, so [fp_sq] is exact only
   to half an ulp, 2^6 units.  The exact square of [fp = hi * 2^20 + lo]
   in units is hi^2 * 2^20 + 2 hi lo + lo^2 / 2^20, whose integer part
   fits an int. *)
let edge_loads =
  [ 1e6; Float.pred 1e6; 1e6 -. 1e-7; 999_999.123_456_789; 987_654.321;
    524_288.000_000_5; 90.5; 0.1 ]

let test_fixed_point_edge () =
  let scale = float_of_int E.fp_scale in
  List.iter
    (fun load ->
      let fp = E.fp_of_load load in
      let err = Float.abs ((float_of_int fp /. scale) -. load) in
      if err > ldexp 1.0 (-21) then
        Alcotest.failf "load %.17g rounds %g away" load err;
      let hi = fp / E.fp_scale and lo = fp mod E.fp_scale in
      let whole = (hi * hi * E.fp_scale) + (2 * hi * lo) in
      let frac = float_of_int (lo * lo) /. scale in
      let sq_err = Float.abs (float_of_int (E.fp_sq fp - whole) -. frac) in
      if sq_err > 64.0 then
        Alcotest.failf "load %.17g: fp_sq is %g units off" load sq_err)
    edge_loads;
  (* four flows at the cap fit the sums; Stats reports the sum of the
     rounded loads, exactly *)
  let e = E.create (config ~capacity:1e7 ()) in
  let loads = [ 1e6; Float.pred 1e6; 999_999.123_456_789; 987_654.321 ] in
  List.iter (fun load -> add e ~load ~now:0.0) loads;
  let rounded =
    List.fold_left
      (fun acc load -> acc +. (float_of_int (E.fp_of_load load) /. scale))
      0.0 loads
  in
  Alcotest.(check (float 0.0)) "admitted load is the sum of the rounded loads"
    rounded (E.stats e).E.admitted_load

(* The next float above the cap is out of range on the frame path, on
   both transports: code 3 to a Decide and to an Add. *)
let past_cap = Float.succ 1e6

let check_past_cap c =
  List.iter
    (fun req ->
      match C.rpc c req with
      | P.Error_reply { code = 3; _ } -> ()
      | _ ->
          Alcotest.failf "%s of load %.17g must answer code 3"
            (P.request_name req) past_cap)
    [ P.Decide { criterion = 0; load = past_cap; now = 0.0 };
      P.Add { load = past_cap; now = 0.0 } ];
  match C.rpc c P.Stats with
  | P.Stats_reply { flows = 0; _ } -> ()
  | _ -> Alcotest.fail "a refused load leaves no flow behind"

(* ---------- the frame path allocates nothing ---------- *)

(* The Loadgen mix (Decide, Log_decision, Add, Subtract) under two
   criteria, an ewma estimator, a pass every 16 accounting calls and a
   file decision log, recorded in the batches a client sends (its posts,
   then the round trip's own frame), then replayed through
   [Server.answer] on a fresh engine.  After a warm-up tenth, the
   replay allocates no minor words. *)
let mix_config () =
  { E.capacity = 100.0;
    criteria = Mbac_serve.Spec.criteria_of_string "ce:0.01,hoeffding:0.01:2.0";
    estimator = Mbac_serve.Spec.estimator_of_string "ewma:100";
    measure_every = 16 }

let test_frame_path_allocates_nothing () =
  let batches =
    let client = C.inproc (E.create (mix_config ())) in
    let b =
      Mbac_serve.Loadgen.record client
        { Mbac_serve.Loadgen.seed = 11; requests = 40_000; arrival_mean = 1.0;
          hold_mean = 100.0; load_mean = 1.0; load_std = 0.3; n_criteria = 2 }
    in
    C.close client;
    b
  in
  let log = Filename.temp_file "mbac_decisions" ".jsonl" in
  let engine = E.create ~decision_log_file:log (mix_config ()) in
  let s = Mbac_serve.Server.session engine in
  let out = Buffer.create 4096 in
  let replay lo hi =
    for i = lo to hi - 1 do
      let b = batches.(i) in
      Buffer.clear out;
      let n = Bytes.length b in
      if Mbac_serve.Server.answer s b ~pos:0 ~avail:n out <> n then
        Alcotest.fail "a recorded batch was not answered whole"
    done
  in
  let warm = Array.length batches / 10 in
  replay 0 warm;
  let before = (E.stats engine).E.requests in
  let w0 = Gc.minor_words () in
  replay warm (Array.length batches);
  let w1 = Gc.minor_words () in
  let frames = (E.stats engine).E.requests - before in
  E.close_log engine;
  Sys.remove log;
  Alcotest.(check bool) "at least 100k frames replayed" true
    (frames >= 100_000);
  let per = (w1 -. w0) /. float_of_int frames in
  if per >= 0.01 then
    Alcotest.failf "%.3f minor words per request over %d frames" per frames

(* ---------- over a real socket ---------- *)

let socket_path =
  let k = ref 0 in
  fun () ->
    incr k;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mbac-test-%d-%d.sock" (Unix.getpid ()) !k)

(* [Server.serve] on a thread of this process; the flag turns true once
   it has returned. *)
let spawn_daemon ?measure_interval ~path engine =
  let returned = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        Mbac_serve.Server.(serve ?measure_interval (listen ~path) engine);
        Atomic.set returned true)
      ()
  in
  (th, returned)

(* Shut down the daemon at [path] if one still answers there. *)
let stop_daemon ~path =
  match C.connect_unix ~retries:0 ~path () with
  | c ->
      (try ignore (C.rpc c P.Shutdown) with Failure _ -> ());
      C.close c
  | exception (Failure _ | Unix.Unix_error _) -> ()

let returns_within seconds returned =
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get returned)) && Unix.gettimeofday () -. t0 < seconds do
    Thread.delay 0.01
  done;
  Atomic.get returned

(* [f ~path ~connect] against a daemon on a thread of this process.
   Afterwards every client [connect] made is closed (the daemon waits
   until its connections' threads are done) and the daemon is shut down
   if [f] left it up.  An alarm turns a deadlock into a failed run
   instead of a hung one. *)
let with_daemon ?(engine = E.create (config ())) f =
  let path = socket_path () in
  let th, _ = spawn_daemon ~path engine in
  ignore (Unix.alarm 120);
  let clients = ref [] in
  let connect () =
    let c = C.connect_unix ~path () in
    clients := c :: !clients;
    c
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter C.close !clients;
      stop_daemon ~path;
      Thread.join th;
      ignore (Unix.alarm 0))
    (fun () ->
      (* listening once a client gets through *)
      C.close (connect ());
      f ~path ~connect)

(* The flows and requests of a Stats reply. *)
let stats_reply c =
  match C.rpc c P.Stats with
  | P.Stats_reply { flows; requests; _ } -> (flows, requests)
  | _ -> Alcotest.fail "Stats must answer Stats_reply"

let test_socket_post_failure () =
  with_daemon (fun ~path:_ ~connect ->
      let c = connect () in
      C.post c (P.Add { load = 1.0; now = 0.0 });
      C.post c (P.Add { load = nan; now = 0.0 });
      C.post c (P.Add { load = 2.0; now = 0.0 });
      (match C.rpc c P.Stats with
      | _ -> Alcotest.fail "the posted NaN Add must fail the next rpc"
      | exception C.Post_failed (P.Add _, P.Error_reply { code = 3; _ }) -> ());
      let flows, requests = stats_reply c in
      Alcotest.(check int) "the stream stays in step" 5 requests;
      Alcotest.(check int) "the good Adds were applied" 2 flows)

let test_socket_post_past_budget () =
  with_daemon (fun ~path:_ ~connect ->
      let c = connect () in
      (* megabytes of posts: replies the client did not read would fill
         both socket buffers long before the last one is written *)
      let n = 200_000 in
      for i = 1 to n do
        C.post c (P.Add { load = 1.0; now = float_of_int i })
      done;
      let flows, requests = stats_reply c in
      Alcotest.(check int) "every posted Add arrived" n flows;
      Alcotest.(check int) "and nothing else" (n + 1) requests)

let stats_frame =
  let b = Buffer.create 8 in
  P.encode_request b P.Stats;
  Buffer.to_bytes b

(* A client that sends Stats and hangs up before the reply.  Shutting
   its read side first makes the daemon's reply meet the hung-up peer
   every time, not only when the close wins the race. *)
let test_daemon_survives_hang_up () =
  with_daemon (fun ~path ~connect ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Unix.shutdown fd Unix.SHUTDOWN_RECEIVE;
      ignore (Unix.write fd stats_frame 0 (Bytes.length stats_frame));
      Unix.close fd;
      let c = connect () in
      ignore (stats_reply c);
      Alcotest.(check bool) "the daemon still takes Shutdown" true
        (C.rpc c P.Shutdown = P.Ok_reply))

(* A client that stays connected and idle does not hold the daemon up:
   after another client's Shutdown, [Server.serve] ends the idle stream and
   returns.  The idle client is served once first, so its connection is
   accepted and its service thread waits in [read]. *)
let test_shutdown_with_idle_client () =
  let path = socket_path () in
  let th, returned = spawn_daemon ~path (E.create (config ())) in
  ignore (Unix.alarm 120);
  let idle = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close idle;
      stop_daemon ~path;
      Thread.join th;
      ignore (Unix.alarm 0))
    (fun () ->
      let c = C.connect_unix ~path () in
      Unix.connect idle (Unix.ADDR_UNIX path);
      ignore (Unix.write idle stats_frame 0 (Bytes.length stats_frame));
      (* the Stats reply: 4 + 53 bytes *)
      let reply = Bytes.create 57 in
      let got = ref 0 in
      while !got < 57 do
        let n = Unix.read idle reply !got (57 - !got) in
        if n = 0 then Alcotest.fail "the daemon closed the idle client early";
        got := !got + n
      done;
      Alcotest.(check bool) "Shutdown is acknowledged" true
        (C.rpc c P.Shutdown = P.Ok_reply);
      C.close c;
      Alcotest.(check bool) "serve returns within 2 s" true
        (returns_within 2.0 returned);
      Alcotest.(check bool) "the socket file is removed" false
        (Sys.file_exists path);
      Alcotest.(check int) "the idle client's stream is ended" 0
        (Unix.read idle reply 0 1))

(* Four clients, each on its own connection and thread, interleave
   their accounting through the daemon lock.  Each posts 2,000 Adds of
   its own load with one Log_decision per Add, then retires 1,000 of
   its flows: the flow count and the admitted load come out exact, and
   the decision log, streamed to a file as the daemon does, holds every
   seq once. *)
let test_concurrent_clients () =
  let log = Filename.temp_file "mbac_decisions" ".jsonl" in
  let engine = E.create ~decision_log_file:log (config ~measure_every:16 ()) in
  let load k = 1.0 +. (0.25 *. float_of_int k) in
  with_daemon ~engine (fun ~path ~connect ->
      let client k () =
        let c = C.connect_unix ~path () in
        for i = 1 to 2_000 do
          C.post c (P.Add { load = load k; now = float_of_int i });
          C.post c (P.Log_decision { criterion = k mod 2; admit = i land 1 = 0 })
        done;
        for i = 1 to 1_000 do
          C.post c (P.Subtract { load = load k; now = float_of_int (2_000 + i) })
        done;
        ignore (C.rpc c P.Stats);
        C.close c
      in
      List.iter Thread.join (List.init 4 (fun k -> Thread.create (client k) ()));
      match C.rpc (connect ()) P.Stats with
      | P.Stats_reply { flows; admitted_load; requests; _ } ->
          Alcotest.(check int) "flows" 4_000 flows;
          Alcotest.(check (float 0.0)) "admitted load"
            (1_000.0 *. (load 0 +. load 1 +. load 2 +. load 3))
            admitted_load;
          Alcotest.(check int) "every request served" (4 * 5_001 + 1) requests
      | _ -> Alcotest.fail "Stats must answer Stats_reply");
  E.close_log engine;
  let seqs =
    Fun.protect
      ~finally:(fun () -> Sys.remove log)
      (fun () ->
        In_channel.with_open_bin log In_channel.input_lines
        |> List.map (fun l -> Scanf.sscanf l "{\"seq\":%d," Fun.id))
  in
  Alcotest.(check (list int)) "every seq logged once" (List.init 8_000 Fun.id)
    (List.sort compare seqs)

(* A daemon keeps nothing for a connection once it has closed: its
   service thread is not kept, so clients that connect and close one
   after another (never two at once) leave the live heap where it was.
   The heap is read once the last service thread is done: a Stats round
   trip on a fresh connection, then a pause for its thread to end. *)
let test_closed_connections_are_not_kept () =
  with_daemon (fun ~path ~connect:_ ->
      let live_words_after n =
        for _ = 1 to n do
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          Unix.close fd
        done;
        let c = C.connect_unix ~path () in
        ignore (stats_reply c);
        C.close c;
        Thread.delay 0.1;
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      let n = 2_000 in
      let before = live_words_after 100 in
      let grown = live_words_after n - before in
      if grown >= n then
        Alcotest.failf "%d connections grew the live heap by %d words" n grown)

(* Measurement passes from the daemon's wall-clock timer alone
   ([measure_every] is 0): within 50 ms one has run, so a Decide is made
   under a measured estimate (ten unit flows, memoryless: M = capacity /
   mu = 100), not the bootstrap M = n + 1.  The timer stops with the
   daemon. *)
let test_measure_interval () =
  let path = socket_path () in
  let th, returned =
    spawn_daemon ~measure_interval:0.01 ~path (E.create (config ()))
  in
  ignore (Unix.alarm 120);
  Fun.protect
    ~finally:(fun () ->
      stop_daemon ~path;
      Thread.join th;
      ignore (Unix.alarm 0))
    (fun () ->
      let c = C.connect_unix ~path () in
      for i = 1 to 10 do
        C.post c (P.Add { load = 1.0; now = float_of_int i })
      done;
      ignore (C.rpc c P.Stats);
      Thread.delay 0.05;
      (match C.rpc c P.Stats with
      | P.Stats_reply { updates; _ } ->
          Alcotest.(check bool) "the timer has measured" true (updates >= 1)
      | _ -> Alcotest.fail "Stats must answer Stats_reply");
      (match C.rpc c (P.Decide { criterion = 0; load = 1.0; now = 11.0 }) with
      | P.Decision { admissible; flows; _ } ->
          Alcotest.(check int) "flows" 10 flows;
          Alcotest.(check int) "M from the measured estimate" 100 admissible
      | _ -> Alcotest.fail "Decide must answer Decision");
      Alcotest.(check bool) "Shutdown is acknowledged" true
        (C.rpc c P.Shutdown = P.Ok_reply);
      C.close c;
      Alcotest.(check bool) "serve returns within 1 s" true
        (returns_within 1.0 returned))

(* The built daemon, run under [ulimit -n 16], which acts on that child
   only.  Fourteen idle connections take more descriptors than it has,
   so its [accept] fails with EMFILE: it must wait and go on serving,
   not take the error for a Shutdown.  Once they close, Stats and then
   Shutdown reach it, and it exits 0. *)
let mbac_serve_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "mbac_serve.exe"))

let test_out_of_descriptors () =
  let path = socket_path () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process "sh"
      [| "sh"; "-c";
         Printf.sprintf "ulimit -n 16; exec %s --socket %s"
           (Filename.quote mbac_serve_exe) (Filename.quote path) |]
      null null Unix.stderr
  in
  Unix.close null;
  let status = ref None in
  let alive () =
    (if !status = None then
       match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _, st -> status := Some st);
    !status = None
  in
  let pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  ignore (Unix.alarm 120);
  Fun.protect
    ~finally:(fun () ->
      if alive () then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
      end;
      Sys.set_signal Sys.sigpipe pipe;
      ignore (Unix.alarm 0))
    (fun () ->
      C.close (C.connect_unix ~path ());
      let idle =
        List.init 14 (fun _ ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX path);
            fd)
      in
      Thread.delay 0.3;
      Alcotest.(check bool) "alive with every descriptor taken" true (alive ());
      Alcotest.(check bool) "its socket is still there" true
        (Sys.file_exists path);
      List.iter Unix.close idle;
      let c = C.connect_unix ~path () in
      (match C.rpc c P.Stats with
      | P.Stats_reply _ -> ()
      | _ -> Alcotest.fail "Stats must answer Stats_reply");
      Alcotest.(check bool) "Shutdown is acknowledged" true
        (C.rpc c P.Shutdown = P.Ok_reply);
      C.close c;
      let _, st = Unix.waitpid [] pid in
      status := Some st;
      Alcotest.(check bool) "exit 0" true (st = Unix.WEXITED 0))

(* A peer that takes one request and closes without reading it: the
   client's read then fails with ECONNRESET, and its next write with
   EPIPE; either is the client's own Failure. *)
let test_client_peer_vanishes () =
  let path = socket_path () in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 1;
  let th =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept sock in
        ignore (Unix.select [ fd ] [] [] (-1.0));
        Unix.close fd)
      ()
  in
  let pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe pipe;
      Thread.join th;
      Unix.close sock;
      Sys.remove path)
    (fun () ->
      let c = C.connect_unix ~path () in
      let failed () =
        match C.rpc c P.Stats with
        | _ -> Alcotest.fail "a vanished daemon cannot answer"
        | exception Failure msg ->
            Alcotest.(check string) "the client's own Failure"
              "Client: peer closed mid-response" msg
      in
      failed ();
      failed ();
      C.close c)

let test_past_cap_both_transports () =
  let c = C.inproc (E.create (config ())) in
  check_past_cap c;
  C.close c;
  with_daemon (fun ~path:_ ~connect -> check_past_cap (connect ()))

let suite =
  [ ( "serve_engine",
      [ test "add/subtract cancel exactly in fixed point"
          test_accounting_roundtrip;
        test "bootstrap admits one flow at a time" test_bootstrap_one_at_a_time;
        test "bootstrap respects capacity headroom"
          test_bootstrap_capacity_backstop;
        test "published estimate drives decide"
          test_published_estimate_drives_decide;
        test "measure_every cadence" test_measure_every_cadence;
        test "initialize resets counters, estimator, capacity"
          test_initialize_resets;
        test "handle validates wire input as typed replies"
          test_handle_validation;
        test "loadgen replay is byte-identical" test_loadgen_replay_identical;
        qcheck "log line renders as its JSON object" arb_log_line
          prop_log_line;
        test "file log streams the in-memory log's bytes"
          test_file_log_streams;
        test "file log write error is a typed reply"
          test_file_log_write_error;
        test "an Add past the fixed-point sums is refused"
          test_add_overflow_refused;
        test "a Subtract no Add matched is refused"
          test_subtract_unmatched_refused;
        test "the fixed point at the largest valid load"
          test_fixed_point_edge;
        test "the frame path allocates nothing"
          test_frame_path_allocates_nothing ] );
    ( "serve_client",
      [ qcheck ~count:100 "posting never changes what the engine sees"
          arb_pipeline prop_pipeline;
        test "post refuses requests that need a reply"
          test_post_refuses_round_trip_requests;
        test "a failed post surfaces at the next rpc"
          test_socket_post_failure;
        test "posts past the byte budget do not deadlock"
          test_socket_post_past_budget;
        test "the daemon survives a client that hangs up"
          test_daemon_survives_hang_up;
        test "Shutdown stops the daemon while a client idles"
          test_shutdown_with_idle_client;
        test "a vanished daemon is the client's Failure"
          test_client_peer_vanishes;
        test "concurrent clients account exactly through the daemon lock"
          test_concurrent_clients;
        test "closed connections leave nothing behind"
          test_closed_connections_are_not_kept;
        test "the measurement timer runs with measure_every 0"
          test_measure_interval;
        test "a daemon out of descriptors goes on serving"
          test_out_of_descriptors;
        test "a load past the cap is code 3 on both transports"
          test_past_cap_both_transports ] ) ]
