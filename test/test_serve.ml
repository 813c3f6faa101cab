(* The serving engine: fixed-point accounting, bootstrap and published
   estimates, initialize semantics, wire-input validation through
   [handle], decision-log determinism across transports, the streamed
   decision log, and a multi-domain accounting smoke test. *)

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

let test_accounting_roundtrip () =
  let e = E.create (config ()) in
  (* loads that are not multiples of 2^-20: add then subtract must
     cancel exactly because both paths quantize identically *)
  let loads = [ 0.1; 0.3; 1.7; 2.9999999; 0.123456789 ] in
  List.iter (fun load -> E.add e ~load ~now:0.0) loads;
  let s = E.stats e in
  Alcotest.(check int) "flows" (List.length loads) s.E.flows;
  check_close ~tol:1e-5 "admitted load"
    (List.fold_left ( +. ) 0.0 loads)
    s.E.admitted_load;
  List.iter (fun load -> E.subtract e ~load ~now:1.0) loads;
  let s = E.stats e in
  Alcotest.(check int) "flows back to zero" 0 s.E.flows;
  check_close_abs "load back to exactly zero" 0.0 s.E.admitted_load

(* ---------- bootstrap and published estimates ---------- *)

let test_bootstrap_one_at_a_time () =
  let e = E.create (config ()) in
  (* no measurement yet: M = flows + 1, so each decide sees headroom of
     exactly one flow *)
  let d = E.decide e ~criterion:0 ~load:1.0 in
  Alcotest.(check bool) "first flow admitted" true d.E.admit;
  Alcotest.(check int) "bootstrap M = n+1" 1 d.E.admissible;
  E.add e ~load:1.0 ~now:0.0;
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
    E.add e ~load:1.0 ~now:0.0
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
    E.add e ~load:1.0 ~now:(float_of_int i)
  done;
  let s = E.stats e in
  Alcotest.(check int) "one pass per 4 accounting calls" 3 s.E.updates

let test_initialize_resets () =
  let e = E.create (config ~capacity:100.0 ()) in
  for _ = 1 to 10 do
    E.add e ~load:1.0 ~now:0.0
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
              E.add e ~load:1.5 ~now:(float_of_int i)
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
          test_parallel_accounting ] ) ]
