(* The per-link kernel both simulators share: a model test of its slot
   table, sums and overflow episodes, and the NaN-refusing config
   validation of the drivers built on it. *)

open Test_util
module Link = Mbac_sim.Link
module CL = Mbac_sim.Continuous_load

let capacity = 5.0
let max_flows = 12

(* admits whenever [max_flows] allows, so the test exercises the table *)
let rec always () =
  Mbac.Controller.make ~name:"always" ~observe:ignore
    ~admissible:(fun _ -> max_int) ~copy:always ()

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

let suite =
  [ ( "link",
      [ test_model;
        test "NaN config values are refused" test_nan_config ] ) ]
