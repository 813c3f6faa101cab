(* The per-link kernel both simulators share: a model test of its slot
   table, sums and overflow episodes, and the NaN-refusing config
   validation of the drivers built on it. *)

open Test_util
module Link = Mbac_sim.Link
module CL = Mbac_sim.Continuous_load

let capacity = 5.0
let max_flows = 12

(* admits whenever [max_flows] allows, so the test exercises the table
   and the link's own cap: a fixed count of [2 * max_flows] flows *)
let always () =
  Mbac.Controller.peak_rate ~capacity:(float_of_int (2 * max_flows)) ~peak:1.0

let fresh () =
  Link.create ~telemetry:false ~capacity ~warmup:0.0 ~batch_length:1.0
    ~max_flows (always ())

(* Σr and Σr² over the live slots, in slot order: what [resync] computes *)
let slot_order_sums rates =
  let slots =
    List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) rates [])
  in
  List.fold_left
    (fun (sum, sq) s ->
      let r = Hashtbl.find rates s in
      (sum +. r, sq +. (r *. r)))
    (0.0, 0.0) slots

let within a b = Float.abs (a -. b) <= 1e-9 *. Float.abs b

let test_model =
  (* op kinds: 0-1 admit, 2 release, 3 set_rate, 4 advance, 5 resync *)
  qcheck ~count:300 "link kernel matches a slot-table model"
    QCheck.(
      list_of_size Gen.(int_range 1 150)
        (triple (int_range 0 5) small_nat (float_range 0.1 3.0)))
    (fun ops ->
      let l = fresh () in
      let rates = Hashtbl.create 16 in
      let free = ref [] and fresh_slot = ref 0 and next_key = ref 0 in
      let gens = Hashtbl.create 16 in
      let gen s = Option.value (Hashtbl.find_opt gens s) ~default:0 in
      let segments = ref [] in
      let live () =
        List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) rates [])
      in
      let pick k =
        match live () with
        | [] -> None
        | ls -> Some (List.nth ls (k mod List.length ls))
      in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun (kind, k, x) ->
          (match kind with
          | 0 | 1 ->
              let obs = Link.observe l in
              let room = Hashtbl.length rates < max_flows in
              expect (Link.admissible l obs = room);
              if room then begin
                let expected =
                  match !free with
                  | s :: rest -> free := rest; s
                  | [] -> incr fresh_slot; !fresh_slot - 1
                in
                let key = !next_key in
                incr next_key;
                let slot = Link.admit l obs ~key ~rate:x ~source:None in
                expect (slot = expected);
                expect (l.Link.keys.(slot) = key && Link.gen l slot = gen slot);
                Hashtbl.replace rates slot x
              end
          | 2 -> (
              match pick k with
              | None -> ()
              | Some s ->
                  ignore (Link.release l s);
                  expect (Link.gen l s = gen s + 1);
                  Hashtbl.replace gens s (gen s + 1);
                  Hashtbl.remove rates s;
                  free := s :: !free)
          | 3 -> (
              match pick k with
              | None -> ()
              | Some s ->
                  ignore (Link.set_rate l s x);
                  expect (Link.granted l s = x);
                  Hashtbl.replace rates s x)
          | 4 ->
              let t0 = l.Link.hot.now in
              let t1 = if k mod 4 = 0 then t0 else t0 +. x in
              segments := (t0, t1, l.hot.sum_rate) :: !segments;
              Link.record l ~t1;
              expect (l.hot.now = t1)
          | _ ->
              Link.resync l;
              let sum, sq = slot_order_sums rates in
              expect (l.hot.sum_rate = sum && l.hot.sum_sq = sq));
          (* invariants after every op *)
          let sum, sq = slot_order_sums rates in
          expect (l.Link.n = Hashtbl.length rates);
          expect (within l.hot.sum_rate sum && within l.hot.sum_sq sq);
          for s = 0 to l.limit - 1 do
            expect ((l.keys.(s) >= 0) = Hashtbl.mem rates s)
          done)
        ops;
      (* episodes against a brute-force pass over the recorded segments:
         an episode is a maximal run of positive-length segments over
         capacity, and its time is the total length of those segments *)
      let episodes, over_time, _ =
        List.fold_left
          (fun (eps, time, was_over) (t0, t1, load) ->
            if t1 > t0 then begin
              let over = load > capacity in
              ( (if over && not was_over then eps + 1 else eps),
                (if over then time +. (t1 -. t0) else time),
                over )
            end
            else (eps, time, was_over))
          (0, 0.0, false) (List.rev !segments)
      in
      let open_at_end = not (Float.is_nan l.hot.ovf_start) in
      expect
        (open_at_end
        = (match List.find_opt (fun (t0, t1, _) -> t1 > t0) !segments with
          | Some (_, _, load) -> load > capacity
          | None -> false));
      Link.finish l;
      expect (l.ovf_episodes = episodes);
      expect (Float.is_nan l.hot.ovf_start);
      expect
        (Float.abs (l.hot.ovf_time -. over_time)
        <= 1e-9 *. Float.max 1.0 over_time);
      (* a copy stays independent of its original *)
      let c = Link.copy l ~rng:(Mbac_stats.Rng.create ~seed:1) in
      let snap (l : Link.t) =
        (l.n, l.hot.sum_rate, l.hot.sum_sq, l.hot.now, Array.copy l.keys,
         Array.copy l.gens, Float.Array.(to_list (sub l.granted 0 l.limit)),
         l.free_top,
         l.admitted, l.released, Mbac_sim.Measurement.measured_time l.meas)
      in
      let before = snap c in
      let obs = Link.observe l in
      if Link.admissible l obs then
        ignore (Link.admit l obs ~key:!next_key ~rate:2.5 ~source:None);
      (match pick 1 with Some s -> ignore (Link.set_rate l s 0.7) | None -> ());
      (match pick 0 with Some s -> ignore (Link.release l s) | None -> ());
      Link.record l ~t1:(l.hot.now +. 1.0);
      expect (snap c = before);
      !ok)

(* ---------- NaN config values ---------- *)

let cl_cfg =
  { (CL.default_config ~capacity:10.0 ~holding_time_mean:10.0 ~target_p_q:1e-2)
    with
    CL.max_events = 1_000 }

let run_cl cfg =
  ignore
    (CL.run (Mbac_stats.Rng.create ~seed:3) cfg
       ~controller:(always ())
       ~make_source:(fun rng ~start ->
         Mbac_traffic.Rcbr.create rng
           { Mbac_traffic.Rcbr.mu = 1.0; sigma = 0.3; t_c = 1.0 }
           ~start))

let test_nan_config () =
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  raises "Link.create: capacity <= 0" (fun () ->
      run_cl { cl_cfg with CL.capacity = nan });
  raises "Measurement.create: warmup < 0" (fun () ->
      run_cl { cl_cfg with CL.warmup = nan });
  raises "Measurement.create: batch_length <= 0" (fun () ->
      run_cl { cl_cfg with CL.batch_length = nan });
  raises "Continuous_load.run: holding_time_mean <= 0" (fun () ->
      run_cl { cl_cfg with CL.holding_time_mean = nan });
  raises "Continuous_load.run: Poisson rate <= 0" (fun () ->
      run_cl { cl_cfg with CL.arrival = `Poisson nan });
  let meas ?sample_spacing ?(capacity = 1.0) ?(warmup = 0.0)
      ?(batch_length = 1.0) () =
    ignore
      (Mbac_sim.Measurement.create ?sample_spacing ~capacity ~warmup
         ~batch_length ())
  in
  raises "Measurement.create: capacity <= 0" (fun () -> meas ~capacity:nan ());
  raises "Measurement.create: warmup < 0" (fun () -> meas ~warmup:nan ());
  raises "Measurement.create: batch_length <= 0" (fun () ->
      meas ~batch_length:nan ());
  raises "Measurement.create: sample_spacing <= 0" (fun () ->
      meas ~sample_spacing:nan ())

(* ---------- decision counters ---------- *)

(* A controller that counts its own [admissible] calls and its [n < m]
   verdicts, in atomics shared by every copy (so clones and parallel
   shards all count into one total).  It admits up to 80% of capacity
   in unit-rate flows, so runs see both verdicts. *)
let counting_controller () =
  let calls = Atomic.make 0 and admits = Atomic.make 0 in
  let make ~capacity =
    let m = int_of_float (0.8 *. capacity) in
    Mbac.Controller.custom ~name:"counting" (fun obs ->
        Atomic.incr calls;
        if Mbac.Observation.count obs < m then Atomic.incr admits;
        m)
  in
  (make, calls, admits)

let decision_counters () =
  let snap = Mbac_telemetry.Snapshot.current () in
  let get name =
    match Mbac_telemetry.Snapshot.find snap name with
    | Some (Mbac_telemetry.Snapshot.Counter n) -> n
    | _ -> 0
  in
  (get "mbac_decisions_total", get "mbac_admit_total", get "mbac_reject_total")

(* The shard's three counters move by exactly the controller's own
   counts over [f]. *)
let check_folded what (calls, admits) f =
  let d0, a0, r0 = decision_counters () in
  let c0 = Atomic.get calls and v0 = Atomic.get admits in
  f ();
  let d1, a1, r1 = decision_counters () in
  let c = Atomic.get calls - c0 and v = Atomic.get admits - v0 in
  if c = 0 || v = 0 || v = c then Alcotest.failf "%s: one verdict only" what;
  Alcotest.(check (list int)) (what ^ ": decisions, admits, rejects")
    [ c; v; c - v ]
    [ d1 - d0; a1 - a0; r1 - r0 ]

let rcbr rng ~start =
  Mbac_traffic.Rcbr.create rng
    { Mbac_traffic.Rcbr.mu = 1.0; sigma = 0.3; t_c = 1.0 }
    ~start

let test_decision_counters () =
  Mbac_telemetry.Shard.with_current (Mbac_telemetry.Shard.create ())
  @@ fun () ->
  let make, calls, admits = counting_controller () in
  let counts = (calls, admits) in
  let cfg = { cl_cfg with CL.max_events = 5_000 } in
  check_folded "run" counts (fun () ->
      ignore
        (CL.run (Mbac_stats.Rng.create ~seed:5) cfg
           ~controller:(make ~capacity:cfg.capacity) ~make_source:rcbr));
  check_folded "stepping" counts (fun () ->
      let sim =
        CL.start (Mbac_stats.Rng.create ~seed:6) cfg
          ~controller:(make ~capacity:cfg.capacity) ~make_source:rcbr
      in
      let steps sim k = for _ = 1 to k do CL.step sim done in
      steps sim 500;
      let snap = CL.snapshot sim in
      steps sim 200;
      let r1 = CL.restore snap in
      let r2 = CL.restore ~rng:(Mbac_stats.Rng.create ~seed:7) snap in
      steps r1 300;
      steps r2 300;
      List.iter CL.fold_decisions [ sim; r1; r2 ]);
  let topology =
    Mbac_net.Topology.star ~leaves:4 ~capacity:10.0 ~rate:0.5
  in
  List.iter
    (fun (shards, jobs) ->
      check_folded
        (Printf.sprintf "network shards=%d jobs=%d" shards jobs)
        counts
        (fun () ->
          ignore
            (Mbac_net.Network.run ~jobs ~seed:8
               { (Mbac_net.Network.default_config ~topology
                    ~holding_time_mean:10.0 ~target_p_q:1e-2)
                 with
                 Mbac_net.Network.shards;
                 max_events = 20_000 }
               ~make_controller:(fun ~link:_ ~capacity -> make ~capacity)
               ~make_source:rcbr)))
    [ (1, 1); (4, 2) ]

let suite =
  [ ( "link",
      [ test_model;
        test "NaN config values are refused" test_nan_config;
        test "decision counters fold exactly" test_decision_counters ] ) ]
