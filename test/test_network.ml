(* The sharded network simulator: topology validation, the int table
   and exchange underneath it, the draw-for-draw equivalence of a
   1-link network with [Continuous_load], and shard-count invariance. *)

open Test_util
module Topo = Mbac_net.Topology
module Net = Mbac_net.Network

(* The invariance properties must exercise real multi-domain schedules
   even on a 1-core runner. *)
let () = Unix.putenv "MBAC_DOMAIN_CAP" "8"

(* ---------- topology ---------- *)

let test_generators () =
  let line = Topo.line ~links:4 ~capacity:10.0 ~rate:1.0 in
  Alcotest.(check int) "line links" 4 (Topo.num_links line);
  (* 4 local routes + 1 end-to-end transit *)
  Alcotest.(check int) "line routes" 5 (Topo.num_routes line);
  Alcotest.(check int) "line hops" 4 (Topo.max_hops line);
  let star = Topo.star ~leaves:5 ~capacity:10.0 ~rate:1.0 in
  Alcotest.(check int) "star links" 5 (Topo.num_links star);
  Alcotest.(check int) "star routes" 10 (Topo.num_routes star);
  Alcotest.(check int) "star hops" 2 (Topo.max_hops star);
  let ce = Topo.core_edge ~edges:4 ~cores:2 ~capacity:10.0 ~core_scale:2.0
      ~rate:1.0 in
  Alcotest.(check int) "core-edge links" 6 (Topo.num_links ce);
  (* one 3-hop route per unordered edge pair *)
  Alcotest.(check int) "core-edge routes" 6 (Topo.num_routes ce);
  Alcotest.(check (float 1e-9)) "core capacity" 20.0
    ce.Topo.capacities.(5);
  (* every link of every topology carries at least one route *)
  List.iter
    (fun t ->
      let touched = Array.make (Topo.num_links t) false in
      Array.iter
        (fun r ->
          Array.iter (fun l -> touched.(l) <- true) r.Topo.links)
        t.Topo.routes;
      Alcotest.(check bool) "all links routed" true
        (Array.for_all Fun.id touched))
    [ line; star; ce ]

let test_spec_and_parse () =
  (match Topo.of_spec ~rate:1.0 ~capacity:10.0 "star:4" with
  | Ok t -> Alcotest.(check int) "spec star" 4 (Topo.num_links t)
  | Error e -> Alcotest.fail e);
  (match Topo.of_spec ~rate:1.0 ~capacity:10.0 "ring:9" with
  | Ok _ -> Alcotest.fail "bad spec accepted"
  | Error _ -> ());
  let text = "# two links, one transit route\nlink 10\nlink 20\nroute 0.5 0 1\nroute 1 1\n" in
  (match Topo.parse text with
  | Ok t ->
      Alcotest.(check int) "parsed links" 2 (Topo.num_links t);
      Alcotest.(check int) "parsed routes" 2 (Topo.num_routes t);
      Alcotest.(check (float 0.0)) "parsed rate" 0.5
        t.Topo.routes.(0).Topo.rate
  | Error e -> Alcotest.fail e);
  (match Topo.parse "link 10\nroute 1 0 0\n" with
  | Ok _ -> Alcotest.fail "repeated link in route accepted"
  | Error _ -> ());
  (match Topo.parse "link 10\nroute 1 3\n" with
  | Ok _ -> Alcotest.fail "out-of-range link accepted"
  | Error _ -> ());
  (* non-finite or non-positive values are errors, never exceptions *)
  List.iter
    (fun (what, rate, capacity) ->
      match Topo.of_spec ~rate ~capacity "line:2" with
      | Ok _ -> Alcotest.failf "spec with %s accepted" what
      | Error _ -> ()
      | exception e ->
          Alcotest.failf "spec with %s raised %s" what (Printexc.to_string e))
    [ ("rate 0", 0.0, 10.0);
      ("rate inf", infinity, 10.0);
      ("rate nan", nan, 10.0);
      ("capacity inf", 1.0, infinity) ];
  List.iter
    (fun text ->
      match Topo.parse text with
      | Ok _ -> Alcotest.failf "config %S accepted" text
      | Error _ -> ())
    [ "link 30\nlink 30\nroute inf 0 1\n";
      "link 1e400\nroute 0.27 0\n";
      "link nan\nroute 0.27 0\n" ];
  Alcotest.check_raises "make refuses an infinite capacity"
    (Invalid_argument "Topology.make: capacity must be finite and > 0")
    (fun () ->
      ignore
        (Topo.make ~capacities:[| infinity |]
           ~routes:[| { Topo.links = [| 0 |]; rate = 1.0 } |]))

(* ---------- int table ---------- *)

let test_int_table_model =
  (* differential test against Hashtbl over add/remove/find churn *)
  qcheck ~count:200 "int table matches Hashtbl model"
    QCheck.(list (pair (int_range 0 200) bool))
    (fun ops ->
      let t = Mbac_net.Int_table.create () in
      let h = Hashtbl.create 16 in
      let next = ref 0 in
      List.iter
        (fun (key, add) ->
          if add then begin
            if not (Hashtbl.mem h key) then begin
              Mbac_net.Int_table.add t ~key ~value:!next;
              Hashtbl.replace h key !next;
              incr next
            end
          end
          else begin
            Mbac_net.Int_table.remove t ~key;
            Hashtbl.remove h key
          end)
        ops;
      Hashtbl.fold
        (fun key v acc ->
          acc && Mbac_net.Int_table.find t ~key = v)
        h
        (Mbac_net.Int_table.length t = Hashtbl.length h
        && List.for_all
             (fun (key, _) ->
               Hashtbl.mem h key || Mbac_net.Int_table.find t ~key = -1)
             ops))

(* ---------- exchange ---------- *)

(* [deliver] concatenates the outboxes for [dst] in (src, send order)
   and copies every field; pushed into a wheel in that order, the
   messages pop in (time, src, send order), because the wheel breaks
   time ties by push order.  Times come from a grid of eight values so
   ties across sources are common. *)
let test_exchange_delivery =
  qcheck ~count:200
    "deliver is (src, send order), the wheel pops (time, src, seq)"
    QCheck.(
      (* (src, dst, time in tenths, rate) *)
      let sends n =
        list_of_size Gen.(int_range 0 n)
          (quad (int_range 0 3) (int_range 0 3) (int_range 0 7) float)
      in
      pair (sends 60) (sends 20))
    (fun (round1, round2) ->
      let module Ex = Mbac_net.Exchange in
      let ex = Ex.create ~shards:4 in
      (* message [i]'s int fields are [i] plus a per-field offset, its
         [t_end] the float whose bits are [i], so a field read from the
         wrong message or slot shows *)
      let send ~first sends =
        List.mapi
          (fun j (src, dst, t10, rate) ->
            let i = first + j in
            let time = float_of_int t10 /. 10.0 in
            Ex.send ex ~src ~dst ~time ~kind:i ~link:(i + 1) ~hop:(i + 2)
              ~route:(i + 3) ~seq:i ~islot:(i + 4) ~igen:(i + 5) ~rate
              ~t_end:(Int64.float_of_bits (Int64.of_int i));
            (i, src, dst, time, rate))
          sends
      in
      let bits = Int64.bits_of_float in
      let check_round msgs =
        List.for_all
          (fun dst ->
            let expected =
              List.stable_sort
                (fun (_, s1, _, _, _) (_, s2, _, _, _) -> compare s1 s2)
                (List.filter (fun (_, _, d, _, _) -> d = dst) msgs)
            in
            let n = Ex.deliver ex ~dst in
            let fields_ok =
              n = List.length expected
              && List.for_all2
                   (fun (i, _, _, time, rate) k ->
                     bits (Ex.in_time ex k) = bits time
                     && Ex.in_kind ex k = i
                     && Ex.in_link ex k = i + 1
                     && Ex.in_hop ex k = i + 2
                     && Ex.in_route ex k = i + 3
                     && Ex.in_seq ex k = i
                     && Ex.in_islot ex k = i + 4
                     && Ex.in_igen ex k = i + 5
                     && bits (Ex.in_rate ex k) = bits rate
                     && bits (Ex.in_tend ex k) = Int64.of_int i)
                   expected (List.init n Fun.id)
            in
            (* (time, src, send order) *)
            let by_time =
              List.stable_sort
                (fun (_, s1, _, t1, _) (_, s2, _, t2, _) ->
                  match compare t1 t2 with 0 -> compare s1 s2 | c -> c)
                expected
            in
            let wheel = Mbac_sim.Calendar_queue.create () in
            for k = 0 to n - 1 do
              Mbac_sim.Calendar_queue.push wheel ~time:(Ex.in_time ex k)
                (Ex.in_seq ex k)
            done;
            let popped =
              List.init n (fun _ ->
                  match Mbac_sim.Calendar_queue.pop wheel with
                  | Some (_, seq) -> seq
                  | None -> -1)
            in
            fields_ok
            && popped = List.map (fun (i, _, _, _, _) -> i) by_time)
          [ 0; 1; 2; 3 ]
      in
      let r1 = send ~first:0 round1 in
      let ok1 = check_round r1 in
      (* every outbox was emptied: the second round delivers only its own
         messages *)
      let r2 = send ~first:(List.length round1) round2 in
      ok1 && check_round r2
      && Ex.delivered_total ex = List.length round1 + List.length round2)

(* ---------- network runs ---------- *)

let t_h = 100.0
let p_q = 1e-2

let make_source rng ~start =
  Mbac_traffic.Rcbr.create rng
    { Mbac_traffic.Rcbr.mu = 1.0; sigma = 0.3; t_c = 1.0 }
    ~start

let make_controller ~link:_ ~capacity =
  Mbac.Controller.robust
    (Mbac.Params.make ~n:capacity ~mu:1.0 ~sigma:0.3 ~t_h ~t_c:1.0 ~p_q)

let net_cfg ~topology ~shards ~max_events =
  { (Net.default_config ~topology ~holding_time_mean:t_h ~target_p_q:p_q)
    with
    Net.shards;
    max_events }

let run_net ?jobs ~seed ~shards ~max_events topology =
  Net.run ?jobs ~seed (net_cfg ~topology ~shards ~max_events)
    ~make_controller ~make_source

let bits = Int64.bits_of_float

let test_single_link_equivalence =
  (* A 1-link network driven from route 0's stream is the
     [Continuous_load] Poisson loop draw-for-draw: with the event caps
     aligned, every count and every measured float matches bitwise. *)
  qcheck ~count:5 "1-link network == Continuous_load (bitwise)"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let capacity = 30.0 in
      let rate = 0.9 *. capacity /. t_h in
      let topology = Topo.line ~links:1 ~capacity ~rate in
      let net = run_net ~seed ~shards:1 ~max_events:60_000 topology in
      let cl_cfg =
        { (Mbac_sim.Continuous_load.default_config ~capacity
             ~holding_time_mean:t_h ~target_p_q:p_q)
          with
          Mbac_sim.Continuous_load.arrival = `Poisson rate;
          warmup = t_h;
          batch_length = t_h /. 5.0;
          check_every_events = max_int;
          max_events = net.Net.events }
      in
      let cl =
        Mbac_sim.Continuous_load.run
          (Mbac_stats.Rng.derive ~seed ~tag:(Net.route_stream_tag 0))
          cl_cfg
          ~controller:(make_controller ~link:0 ~capacity)
          ~make_source
      in
      let open Mbac_sim.Continuous_load in
      let l = net.Net.links.(0) in
      net.Net.flows_admitted = cl.admitted
      && net.Net.flows_blocked = cl.blocked
      && net.Net.flows_departed = cl.departed
      && net.Net.events = cl.events
      && l.Net.updates = cl.reneg_attempts
      && bits l.Net.p_f = bits cl.p_f
      && bits l.Net.p_f_point = bits cl.p_f_point
      && bits l.Net.mean_load = bits cl.mean_load
      && bits l.Net.std_load = bits cl.std_load
      && bits net.Net.sim_time = bits cl.sim_time)

let render r = Format.asprintf "%a" Net.pp_result r

let test_shard_invariance =
  (* The tentpole's determinism contract: byte-identical output for any
     shard count and any --jobs, on every generator shape. *)
  qcheck ~count:6 "resharding never changes a byte"
    QCheck.(pair (int_range 0 1000) (int_range 0 2))
    (fun (seed, shape) ->
      let capacity = 30.0 in
      let rate = 0.9 *. capacity /. t_h in
      let topology, shards =
        match shape with
        | 0 -> (Topo.line ~links:4 ~capacity ~rate, 4)
        | 1 -> (Topo.star ~leaves:5 ~capacity ~rate, 3)
        | _ ->
            ( Topo.core_edge ~edges:4 ~cores:2 ~capacity ~core_scale:2.0
                ~rate,
              2 )
      in
      (* [jobs:1] keeps the property cheap on a 1-core runner; the
         domain-parallel drivers are pinned against the same serial
         reference by [test_parallel_drivers] and the network cram *)
      let reference =
        render (run_net ~jobs:1 ~seed ~shards:1 ~max_events:40_000 topology)
      in
      let sharded =
        render (run_net ~jobs:1 ~seed ~shards ~max_events:40_000 topology)
      in
      String.equal reference sharded)

let test_parallel_drivers () =
  (* One driver at every width: serial (inline, every message pushed
     at send time), one runner per shard (every message through the
     exchange), and fewer runners than shards, evenly (jobs 2: two
     shards each) and unevenly (jobs 3: one, one and two shards).  All
     must render identically, and count the same cross-shard messages
     and windows, however many of the messages the exchange carried. *)
  let capacity = 30.0 in
  let rate = 0.9 *. capacity /. t_h in
  List.iter
    (fun (name, topology) ->
      let run jobs =
        let r = run_net ~jobs ~seed:21 ~shards:4 ~max_events:20_000 topology in
        (render r, r.Net.windows, r.Net.messages)
      in
      let ((_, _, messages) as reference) = run 1 in
      Alcotest.(check bool) (name ^ ": cross-shard messages") true
        (messages > 0);
      List.iter
        (fun (jobs, what) ->
          Alcotest.(check (triple string int int))
            (Printf.sprintf "%s: %s (jobs %d)" name what jobs)
            reference (run jobs))
        [ (4, "one runner per shard");
          (2, "two shards per runner");
          (3, "uneven runner ranges") ])
    [ ("line:4", Topo.line ~links:4 ~capacity ~rate);
      ("star:5", Topo.star ~leaves:5 ~capacity ~rate);
      ( "core-edge:4x2",
        Topo.core_edge ~edges:4 ~cores:2 ~capacity ~core_scale:2.0 ~rate ) ]

let test_nan_config () =
  (* warmup and batch_length reach each link's measurement, which must
     refuse NaN as it refuses non-positive values *)
  let topology = Topo.line ~links:2 ~capacity:30.0 ~rate:0.27 in
  let cfg = net_cfg ~topology ~shards:1 ~max_events:1_000 in
  let run cfg =
    ignore (Net.run ~jobs:1 ~seed:1 cfg ~make_controller ~make_source)
  in
  Alcotest.check_raises "warmup"
    (Invalid_argument "Measurement.create: warmup < 0") (fun () ->
      run { cfg with Net.warmup = nan });
  Alcotest.check_raises "batch_length"
    (Invalid_argument "Measurement.create: batch_length <= 0") (fun () ->
      run { cfg with Net.batch_length = nan });
  (* an infinite setup delay is one window that never ends *)
  List.iter
    (fun d ->
      Alcotest.check_raises "setup_delay"
        (Invalid_argument "Network.run: setup_delay must be finite and > 0")
        (fun () -> run { cfg with Net.setup_delay = d }))
    [ nan; infinity ]

let test_conservation () =
  let capacity = 30.0 in
  let rate = 0.9 *. capacity /. t_h in
  let topology = Topo.star ~leaves:4 ~capacity ~rate in
  let r = run_net ~jobs:1 ~seed:5 ~shards:2 ~max_events:80_000 topology in
  Alcotest.(check bool) "admitted >= departed" true
    (r.Net.flows_admitted >= r.Net.flows_departed);
  (* every route crosses two links: each end-to-end admission reserves
     once per hop, and every reservation is eventually released or is
     still held at the end of the run *)
  let reserved =
    Array.fold_left (fun a l -> a + l.Net.reserved) 0 r.Net.links
  in
  let released =
    Array.fold_left (fun a l -> a + l.Net.released) 0 r.Net.links
  in
  Alcotest.(check bool) "reservations released <= reserved" true
    (released <= reserved);
  Alcotest.(check bool) "some flows admitted" true (r.Net.flows_admitted > 0);
  Alcotest.(check bool) "utilization sane" true
    (Array.for_all
       (fun l -> l.Net.utilization > 0.0 && l.Net.utilization < 1.0)
       r.Net.links)

let test_reject_blocks_end_to_end () =
  (* A tight transit link must block flows even when the ingress has
     room: end-to-end admission, blame attributed to the tight hop. *)
  let topology =
    match
      Topo.parse "link 30\nlink 5\nroute 0.27 0 1\nroute 0.05 1\n"
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let r = run_net ~jobs:1 ~seed:11 ~shards:2 ~max_events:60_000 topology in
  Alcotest.(check bool) "tight link attributed blocks" true
    (r.Net.links.(1).Net.link_blocked > 0);
  Alcotest.(check bool) "network blocks flows" true (r.Net.flows_blocked > 0)

let suite =
  [ ( "network",
      [ Alcotest.test_case "topology generators" `Quick test_generators;
        Alcotest.test_case "spec + config parsing" `Quick test_spec_and_parse;
        test_int_table_model;
        test_exchange_delivery;
        test_single_link_equivalence;
        test_shard_invariance;
        Alcotest.test_case "parallel drivers" `Quick test_parallel_drivers;
        Alcotest.test_case "NaN config values are refused" `Quick
          test_nan_config;
        Alcotest.test_case "conservation" `Quick test_conservation;
        Alcotest.test_case "end-to-end rejection" `Quick
          test_reject_blocks_end_to_end ] ) ]
