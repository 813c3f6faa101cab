(* The serving engine: fixed-point accounting and its overflow refusal,
   bootstrap and published estimates, initialize semantics, wire-input
   validation through [handle], decision-log determinism across
   transports, the streamed decision log, and a multi-domain accounting
   smoke test.  Then the client: pipelined posts in-process, and over a
   real socket the post contract, the batch budget, and peers that hang
   up on either side. *)

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

(* ---------- fixed-point accounting ---------- *)

let add e ~load ~now = if not (E.add e ~load ~now) then Alcotest.fail "add refused"

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
    s.E.admitted_load;
  List.iter (fun load -> E.subtract e ~load ~now:1.0) loads;
  let s = E.stats e in
  Alcotest.(check int) "flows back to zero" 0 s.E.flows;
  check_close_abs "load back to exactly zero" 0.0 s.E.admitted_load

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
  Alcotest.(check (float 0.0)) "admitted load as the twin" s'.E.admitted_load
    s.E.admitted_load;
  Alcotest.(check int) "measurement passes as the twin" s'.E.updates
    s.E.updates;
  for criterion = 0 to 1 do
    let d = E.decide e ~criterion ~load:1.0
    and d' = E.decide twin ~criterion ~load:1.0 in
    Alcotest.(check int) "admissible count as the twin" d'.E.admissible
      d.E.admissible;
    Alcotest.(check bool) "the estimate still follows the flows" true
      (d.E.admissible > s.E.flows)
  done

(* ---------- bootstrap and published estimates ---------- *)

let test_bootstrap_one_at_a_time () =
  let e = E.create (config ()) in
  (* no measurement yet: M = flows + 1, so each decide sees headroom of
     exactly one flow *)
  let d = E.decide e ~criterion:0 ~load:1.0 in
  Alcotest.(check bool) "first flow admitted" true d.E.admit;
  Alcotest.(check int) "bootstrap M = n+1" 1 d.E.admissible;
  add e ~load:1.0 ~now:0.0;
  let d = E.decide e ~criterion:0 ~load:1.0 in
  Alcotest.(check bool) "second flow admitted" true d.E.admit;
  Alcotest.(check int) "bootstrap M tracks n" 2 d.E.admissible

let test_bootstrap_capacity_backstop () =
  let e = E.create (config ~capacity:10.0 ()) in
  let d = E.decide e ~criterion:0 ~load:11.0 in
  Alcotest.(check bool) "bootstrap still checks capacity headroom" false
    d.E.admit

let test_published_estimate_drives_decide () =
  let e = E.create (config ~capacity:100.0 ()) in
  for _ = 1 to 50 do
    add e ~load:1.0 ~now:0.0
  done;
  E.run_measurement e ~now:0.0;
  (* memoryless estimator over 50 identical unit flows: mu = 1, sigma = 0
     for the Gaussian criterion -> M = floor(capacity / mu) = 100 *)
  let d = E.decide e ~criterion:0 ~load:1.0 in
  Alcotest.(check bool) "admitted under published estimate" true d.E.admit;
  Alcotest.(check int) "M = capacity / mu for sigma = 0" 100 d.E.admissible;
  Alcotest.(check int) "flows reported" 50 d.E.flows;
  (* the Hoeffding criterion at the same state is strictly tighter *)
  let dh = E.decide e ~criterion:1 ~load:1.0 in
  Alcotest.(check bool) "hoeffding M below gaussian M" true
    (dh.E.admissible < d.E.admissible)

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
  check_close_abs "load cleared" 0.0 s.E.admitted_load;
  check_close "capacity retargeted" 5.0 s.E.capacity;
  (* estimator history must be gone too: back to bootstrap one-at-a-time *)
  let d = E.decide e ~criterion:0 ~load:1.0 in
  Alcotest.(check int) "back to bootstrap M = n+1" 1 d.E.admissible;
  let d = E.decide e ~criterion:0 ~load:6.0 in
  Alcotest.(check bool) "new capacity enforced" false d.E.admit

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

(* ---------- cross-domain accounting smoke ---------- *)

let test_parallel_accounting () =
  let e = E.create (config ~capacity:1e5 ()) in
  let per_domain = 2_000 in
  let workers =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              add e ~load:1.5 ~now:(float_of_int i)
            done;
            for i = 1 to per_domain / 2 do
              E.subtract e ~load:1.5 ~now:(float_of_int i)
            done))
  in
  Array.iter Domain.join workers;
  let s = E.stats e in
  Alcotest.(check int) "flow count survives contention" (4 * per_domain / 2)
    s.E.flows;
  check_close ~tol:1e-9 "admitted load survives contention"
    (1.5 *. float_of_int (4 * per_domain / 2))
    s.E.admitted_load

(* ---------- pipelining ---------- *)

module C = Mbac_serve.Client

(* A random request stream, each postable request marked post or rpc:
   loads stay valid, so every posted request is answered [Ok_reply].  A
   third of the streams post almost everything, past the client's
   16 KiB batch budget between two rpcs. *)
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
    list_size size (pair (frequency reqs) (frequencyl [ (post, true); (1, false) ]))
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

(* ---------- over a real socket ---------- *)

let socket_path =
  let k = ref 0 in
  fun () ->
    incr k;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mbac-test-%d-%d.sock" (Unix.getpid ()) !k)

(* [f ~path ~connect] against a daemon ([Server.run_unix]) on a thread
   of this process.  Afterwards every client [connect] made is closed
   (the daemon joins its connections' threads) and the daemon is shut
   down if [f] left it up.  An alarm turns a deadlock into a failed run
   instead of a hung one. *)
let with_daemon f =
  let path = socket_path () in
  let engine = E.create (config ()) in
  let th = Thread.create (fun () -> Mbac_serve.Server.run_unix engine ~path) () in
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
      (match C.connect_unix ~retries:0 ~path () with
      | c -> (
          (try ignore (C.rpc c P.Shutdown) with Failure _ -> ());
          C.close c)
      | exception (Failure _ | Unix.Unix_error _) -> ());
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
        test "parallel accounting is lock-free and exact"
          test_parallel_accounting;
        test "an Add past the fixed-point sums is refused"
          test_add_overflow_refused ] );
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
        test "a vanished daemon is the client's Failure"
          test_client_peer_vanishes ] ) ]
