(* Copying and resetting estimators and controllers, and copying
   traffic sources.  Their state is plain data, so a copy is checked
   structurally as well as by its answers: after the same observations
   (or draws) a copy and its original compare equal, and feeding only
   the original leaves the copy where it was. *)

open Test_util
module E = Mbac.Estimator
module C = Mbac.Controller

(* A step of the stream: how far time moves (nothing a quarter of the
   time: dt = 0 is the simulator's burst at start), the flow count, the
   per-flow mean and spread of the cross-section, and, for controllers,
   what follows the observation (0: an admission test, 1: a departure,
   2: nothing). *)
let step_gen =
  QCheck.(
    pair
      (quad (int_range 0 3) (int_range 0 140) (float_range 0.2 2.0)
         (float_range 0.0 1.0))
      (int_range 0 2))

let stream_gen =
  QCheck.(pair (list_of_size Gen.(int_range 1 150) step_gen) (int_range 0 1000))

(* Cumulative time; n flows of mean [mu] and spread [sd] give
   Σr = n mu and Σr² = n (mu² + sd²). *)
let observations steps =
  let now = ref 0.0 in
  List.map
    (fun ((dt, n, mu, sd), op) ->
      if dt > 0 then now := !now +. (0.37 *. float_of_int (dt * dt));
      let nf = float_of_int n in
      let sum_rate = if n = 0 then 0.0 else nf *. mu in
      let sum_sq = if n = 0 then 0.0 else nf *. ((mu *. mu) +. (sd *. sd)) in
      (Mbac.Observation.make ~now:!now ~n ~sum_rate ~sum_sq, op))
    steps

type ('a, 'b) subject = {
  fresh : unit -> 'a;
  feed : 'a -> Mbac.Observation.t * int -> 'b;
  copy : 'a -> 'a;
  reset : 'a -> unit;
}

(* The copy is taken after [k] steps.  Every comparison is [compare _ _ =
   0], which holds NaN equal to NaN (a window ring's unused slots hold
   NaN). *)
let equivalent s (steps, k) =
  let stream = observations steps in
  let k = k mod (List.length stream + 1) in
  let prefix = List.filteri (fun i _ -> i < k) stream in
  let suffix = List.filteri (fun i _ -> i >= k) stream in
  let run x obs = List.map (s.feed x) obs in
  let same a b = compare a b = 0 in
  let orig = s.fresh () in
  ignore (run orig prefix);
  let cp = s.copy orig in
  let replay = s.fresh () in
  ignore (run replay prefix);
  let answers = run orig suffix in
  (* only the original moved: the copy is still the state at [k] *)
  same cp replay
  && same (run cp suffix) answers
  && same cp orig
  &&
  (s.reset orig;
   same (run orig stream) (run (s.fresh ()) stream))

let estimators =
  [ ("memoryless", E.memoryless);
    ("ewma", fun () -> E.ewma ~t_m:3.0);
    ("ewma(0)", fun () -> E.ewma ~t_m:0.0);
    ("window", fun () -> E.sliding_window ~t_w:4.0);
    (* wider than the stream: its ring grows past its first capacity *)
    ("long window", fun () -> E.sliding_window ~t_w:1e4);
    ("aggregate", fun () -> E.aggregate_only ~t_m:2.5);
    ( "prior(memoryless)",
      fun () -> E.with_prior ~mu:1.0 ~var:0.1 ~weight:0.3 (E.memoryless ()) );
    ( "prior(window)",
      fun () ->
        E.with_prior ~mu:0.5 ~var:0.4 ~weight:0.8 (E.sliding_window ~t_w:6.0)
    ) ]

let estimator_subject fresh =
  { fresh;
    feed =
      (fun e (obs, _) ->
        E.observe e obs;
        (* the fields now: [current] refreshes one record in place *)
        Option.map (fun x -> (x.E.mu_hat, x.E.var_hat)) (E.current e));
    copy = E.copy;
    reset = E.reset }

let capacity = 100.0
let p_ce = 1e-3

let params =
  Mbac.Params.make ~n:100.0 ~mu:1.0 ~sigma:0.3 ~t_h:1000.0 ~t_c:1.0 ~p_q:1e-3

let controllers =
  [ ("perfect", fun () -> C.perfect params);
    ("memoryless", fun () -> C.memoryless ~capacity ~p_ce);
    ("memory", fun () -> C.with_memory ~capacity ~p_ce ~t_m:5.0);
    ("robust", fun () -> C.robust params);
    ( "measured-sum",
      fun () ->
        C.measured_sum ~capacity ~utilization_target:0.9 ~window:10.0
          ~peak:2.0 );
    ( "hoeffding",
      fun () -> C.hoeffding ~capacity ~p_ce ~peak:2.0 (E.ewma ~t_m:5.0) );
    ( "gkk",
      fun () ->
        C.gkk ~capacity ~p_ce ~prior_mu:1.0 ~prior_var:0.09 ~prior_weight:0.5 );
    ("peak-rate", fun () -> C.peak_rate ~capacity ~peak:2.0);
    ( "chernoff",
      fun () -> C.chernoff ~capacity ~p_ce (E.sliding_window ~t_w:8.0) );
    ( "of_rule ~back_off:true",
      fun () ->
        C.of_rule ~back_off:true ~name:"backoff" ~capacity
          (Mbac.Criterion.gaussian ~p_ce) (E.aggregate_only ~t_m:4.0) ) ]

let controller_subject fresh =
  { fresh;
    feed =
      (fun c (obs, op) ->
        C.observe c obs;
        match op with
        | 0 -> Some (C.admissible c obs)
        | 1 ->
            C.on_depart c obs;
            None
        | _ -> None);
    copy = C.copy;
    reset = C.reset }

let each what subjects subject =
  qcheck ~count:100
    (what ^ ": copies and resets stay equivalent")
    stream_gen
    (fun input ->
      List.for_all
        (fun (name, fresh) ->
          equivalent (subject fresh) input
          || QCheck.Test.fail_reportf "%s %s" what name)
        subjects)

(* ---------- sources ---------- *)

module S = Mbac_traffic.Source
module Rng = Mbac_stats.Rng

(* Every model, the modulated one around two kinds of inner source, and
   the test-only custom kind (the Markov-fluid oracle).  Custom sources
   are copies of one built source, so that they share its step function
   and compare structurally with each other. *)
let sources =
  let rcbr = { Mbac_traffic.Rcbr.mu = 1.0; sigma = 0.3; t_c = 1.0 } in
  let onoff = { Mbac_traffic.Onoff.peak = 2.0; mean_on = 0.7; mean_off = 1.3 } in
  let ou = Mbac_traffic.Ou_source.default_params ~mu:1.0 in
  let trace =
    Mbac_traffic.Trace.create ~dt:0.5
      (Array.init 97 (fun i -> float_of_int (1 + (i / 4 mod 3))))
  in
  (* switches every 2 time units, between the inner source's changes *)
  let schedule =
    Mbac_traffic.Modulated.schedule
      (Array.init 2000 (fun i ->
           (2.0 *. float_of_int i, if i mod 2 = 0 then 1.0 else 1.5)))
  in
  let fluid =
    { Mbac_oracles.Markov_fluid.generator =
        [| [| -2.0; 1.0; 1.0 |]; [| 0.5; -1.0; 0.5 |]; [| 1.0; 1.0; -2.0 |] |];
      rates = [| 0.0; 1.0; 4.0 |] }
  in
  [ ("rcbr", fun rng -> Mbac_traffic.Rcbr.create rng rcbr ~start:0.0);
    ("onoff", fun rng -> Mbac_traffic.Onoff.create rng onoff ~start:0.0);
    ("ou", fun rng -> Mbac_traffic.Ou_source.create rng ou ~start:0.0);
    ("trace", fun rng -> Mbac_traffic.Trace_source.create rng trace ~start:0.0);
    ( "modulated(rcbr)",
      fun rng ->
        Mbac_traffic.Modulated.create ~start:0.0 schedule
          (Mbac_traffic.Rcbr.create rng rcbr ~start:0.0) );
    ( "modulated(onoff)",
      fun rng ->
        Mbac_traffic.Modulated.create ~start:0.0 schedule
          (Mbac_traffic.Onoff.create rng onoff ~start:0.0) );
    ( "custom",
      let built =
        Mbac_oracles.Markov_fluid.create (Rng.create ~seed:0) fluid ~start:0.0
      in
      fun rng -> S.copy built rng ) ]

let fire s = S.fire s ~now:(S.next_change s)

(* The copy is taken after [k] changes, with its own RNG in the state of
   the original's.  Once only the original has fired [m] more changes,
   the copy must still equal a replay of the first [k] (a copy sharing
   the RNG or any state, or a modulated copy sharing its inner source,
   would have moved with the original).  Then the copy, fed its equal
   stream, fires the original's (rate, next change) sequence and ends
   equal to it. *)
let source_equivalent make (seed, k, m) =
  let at_k () =
    let rng = Rng.create ~seed in
    let s = make rng in
    for _ = 1 to k do
      fire s
    done;
    (s, rng)
  in
  let orig, rng = at_k () in
  let cp = S.copy orig (Rng.copy rng) in
  let replay, _ = at_k () in
  let same a b = compare a b = 0 in
  let run s =
    List.init m (fun _ ->
        fire s;
        (S.rate s, S.next_change s))
  in
  same cp orig
  &&
  let changes = run orig in
  same cp replay && same (run cp) changes && same cp orig

let each_source =
  qcheck ~count:100 "sources: copies fire as their originals"
    QCheck.(triple (int_range 0 100_000) (int_range 0 200) (int_range 1 200))
    (fun input ->
      List.for_all
        (fun (name, make) ->
          source_equivalent make input
          || QCheck.Test.fail_reportf "source %s" name)
        sources)

let suite =
  [ ( "copy",
      [ each "estimators" estimators estimator_subject;
        each "controllers" controllers controller_subject;
        each_source ] ) ]
