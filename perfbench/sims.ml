(* The simulator workloads: paper-link and wide-link drive
   [Continuous_load.run], net-churn drives [Network.run].  Each untimed
   set-up builds the inputs a user would (model parameters, the robust
   controller with its eqn-38 inversion, the topology); each timed call
   is one library call over a fixed event count; every result is
   digested and checked. *)

module CL = Mbac_sim.Continuous_load
module Net = Mbac_net.Network
module Topo = Mbac_net.Topology
module Rng = Mbac_stats.Rng

(* The paper's §5.2 source and target: RCBR with sigma/mu = 0.3,
   T_c = 1, p_q = 1e-3. *)
let mu = 1.0
let sigma = 0.3
let t_c = 1.0
let p_q = 1e-3

let params ~n ~t_h = Mbac.Params.make ~n ~mu ~sigma ~t_h ~t_c ~p_q
let rcbr = { Mbac_traffic.Rcbr.mu; sigma; t_c }
let make_source rng ~start = Mbac_traffic.Rcbr.create rng rcbr ~start

(* Batch length as [mbac_sim] sets it: 2 max(T~_h, T_m, T_c), with the
   robust controller's T_m = T~_h. *)
let batch_of p = 2.0 *. Float.max (Mbac.Params.t_h_tilde p) t_c

(* Warm-up: five batches as in [mbac_sim], but at least 2.5 T_h.  Under
   continuous load the first admission sees one flow's rate r_1 and no
   variance, so [start] admits ~c / r_1 flows at once; the excess drains
   at the departure rate, as exp(-t / T_h).  2.5 T_h keeps overshoots
   up to 12x (r_1 > 0.08, all but ~0.1% of seeds) out of the measured
   window.  The transient itself stays inside every timed call. *)
let warmup_of p ~t_h = Float.max (5.0 *. batch_of p) (2.5 *. t_h)

type cl_model = { n : float; t_h : float; events : int }

let paper = { n = 100.0; t_h = 1000.0; events = 2_000_000 }
let wide = { n = 1e4; t_h = 100.0; events = 4_000_000 }

type cl_setup = {
  model : cl_model;
  p : Mbac.Params.t;
  cfg : CL.config;
  controller : Mbac.Controller.t;
  seed : int;
}

let cl_setup model ~seed =
  let p = params ~n:model.n ~t_h:model.t_h in
  let batch = batch_of p in
  let cfg =
    { (CL.default_config ~capacity:(Mbac.Params.capacity p)
         ~holding_time_mean:model.t_h ~target_p_q:p_q)
      with
      CL.warmup = warmup_of p ~t_h:model.t_h;
      batch_length = batch;
      max_events = model.events;
      (* the stop checks still run every [check_every_events], but can
         never end the run: every call processes exactly [events] *)
      min_batches = max_int }
  in
  { model; p; cfg; controller = Mbac.Controller.robust p; seed }

let cl_rng s = Rng.derive ~seed:s.seed ~tag:"perfbench/continuous-load"

let cl_run ?events s =
  let cfg =
    match events with None -> s.cfg | Some e -> { s.cfg with CL.max_events = e }
  in
  let rng = cl_rng s in
  let t0 = Clock.now_ns () in
  let r = CL.run rng cfg ~controller:s.controller ~make_source in
  (r, Clock.now_ns () - t0)

(* Floats enter digests by their bits, so any change in any result
   field shows. *)
let digest_of parts =
  Digest.to_hex (Digest.string (String.concat ";" parts))

let fbits x = Printf.sprintf "%Lx" (Int64.bits_of_float x)
let kind_str = function `Direct -> "direct" | `Gaussian_fit -> "fit"

let cl_digest
    { CL.p_f; estimate_kind; converged; ci_rel; mean_flows; mean_load;
      std_load; utilization; mean_utility; admitted; departed; blocked;
      blocking_probability; reneg_attempts; reneg_failures;
      reneg_failure_probability; buffer_loss_fraction; p_f_point; sim_time;
      events } =
  digest_of
    [ fbits p_f; kind_str estimate_kind; string_of_bool converged;
      fbits ci_rel; fbits mean_flows; fbits mean_load; fbits std_load;
      fbits utilization; fbits mean_utility; string_of_int admitted;
      string_of_int departed; string_of_int blocked;
      fbits blocking_probability; string_of_int reneg_attempts;
      string_of_int reneg_failures; fbits reneg_failure_probability;
      fbits buffer_loss_fraction; fbits p_f_point; fbits sim_time;
      string_of_int events ]

let in_unit x = x >= 0.0 && x <= 1.0
let in_util x = x > 0.0 && x <= 1.0

let cl_check s (r : CL.result) =
  let fails = ref [] in
  let need ok what = if not ok then fails := what :: !fails in
  need (r.events = s.model.events) "events <> requested count";
  need (in_unit r.p_f) "p_f outside [0,1]";
  need (in_util r.utilization) "utilization outside (0,1]";
  List.rev !fails

(* ---------- net-churn ---------- *)

(* [mbac_sim network]'s model on core-edge 8x2: edge links of n = 100,
   core links twice that, robust controllers sized per link, Poisson
   arrivals at offered load 0.9 per link, T_h = 10, 4 shards. *)
let net_n = 100.0
let net_t_h = 10.0
let net_offered = 0.9
let net_shards = 4
let net_events = 1_000_000

type net_setup = { ncfg : Net.config; controllers : Mbac.Controller.t array; nseed : int }

let net_controller ~capacity =
  Mbac.Controller.robust (params ~n:(capacity /. mu) ~t_h:net_t_h)

let net_setup ~seed =
  let capacity = net_n *. mu in
  let rate = net_offered *. net_n /. net_t_h in
  let topology =
    match Topo.of_spec ~rate ~capacity "core-edge:8x2" with
    | Ok t -> t
    | Error e -> failwith e
  in
  let p = params ~n:net_n ~t_h:net_t_h in
  let batch = batch_of p in
  let ncfg =
    { (Net.default_config ~topology ~holding_time_mean:net_t_h ~target_p_q:p_q)
      with
      Net.shards = net_shards;
      setup_delay = net_t_h /. 100.0;
      warmup = warmup_of p ~t_h:net_t_h;
      batch_length = batch;
      max_events = net_events }
  in
  let controllers =
    Array.map (fun capacity -> net_controller ~capacity) topology.Topo.capacities
  in
  { ncfg; controllers; nseed = seed }

(* [Network.run] resets each controller it is handed, so the set-up's
   controllers serve every call. *)
let net_run ?events s =
  let cfg =
    match events with None -> s.ncfg | Some e -> { s.ncfg with Net.max_events = e }
  in
  let t0 = Clock.now_ns () in
  let r =
    Net.run ~jobs:1 ~seed:s.nseed cfg
      ~make_controller:(fun ~link ~capacity:_ -> s.controllers.(link))
      ~make_source
  in
  (r, Clock.now_ns () - t0)

let net_digest
    { Net.flows_admitted; flows_blocked; flows_departed; blocking_probability;
      events; sim_time; windows; messages; links } =
  let link_parts
      { Net.link; capacity; p_f; estimate_kind; p_f_point; mean_load;
        std_load; utilization; reserved; link_blocked; released; updates;
        ovf_episodes; ovf_time } =
    [ string_of_int link; fbits capacity; fbits p_f; kind_str estimate_kind;
      fbits p_f_point; fbits mean_load; fbits std_load; fbits utilization;
      string_of_int reserved; string_of_int link_blocked;
      string_of_int released; string_of_int updates;
      string_of_int ovf_episodes; fbits ovf_time ]
  in
  digest_of
    ([ string_of_int flows_admitted; string_of_int flows_blocked;
       string_of_int flows_departed; fbits blocking_probability;
       string_of_int events; fbits sim_time; string_of_int windows;
       string_of_int messages ]
    @ List.concat_map link_parts (Array.to_list links))

let hop_tests (r : Net.result) =
  Array.fold_left (fun a l -> a + l.Net.reserved + l.Net.link_blocked) 0 r.links

(* On core-edge every route is edge -> core -> edge: core links only see
   hop-1 setups, and edge links see ingress arrivals plus hop-2 setups
   (one per core reservation whose setup message was delivered).  So
   edge tests minus core reservations under-counts ingress attempts by
   the hop-2 setups still in flight, and admitted + blocked falls short
   of ingress attempts by the walks still in flight at the stop
   boundary plus the flows whose holding time ended before their
   confirm came back (neither admitted nor blocked).  Both are a few
   per cent at most; a larger gap, or a negative one, is a defect. *)
let ingress_gap s (r : Net.result) =
  let edges = Array.length s.ncfg.topology.Topo.capacities - 2 in
  let attempts = ref 0 in
  Array.iter
    (fun (l : Net.link_result) ->
      if l.link < edges then attempts := !attempts + l.reserved + l.link_blocked
      else attempts := !attempts - l.reserved)
    r.links;
  (!attempts, !attempts - (r.flows_admitted + r.flows_blocked))

let net_check s (r : Net.result) =
  let fails = ref [] in
  let need ok what = if not ok then fails := what :: !fails in
  (* the network stops at the first window boundary at or past the
     requested count *)
  need (r.events >= net_events && r.events < net_events + (net_events / 100))
    "events outside [requested, requested + 1%)";
  Array.iter
    (fun (l : Net.link_result) ->
      need (in_unit l.p_f) (Printf.sprintf "link %d p_f outside [0,1]" l.link);
      need (in_util l.utilization)
        (Printf.sprintf "link %d utilization outside (0,1]" l.link);
      need (l.released <= l.reserved)
        (Printf.sprintf "link %d released > reserved" l.link))
    r.links;
  let attempts, gap = ingress_gap s r in
  need (gap >= 0 && gap * 20 <= attempts)
    (Printf.sprintf "admitted + blocked = %d vs %d ingress attempts"
       (r.flows_admitted + r.flows_blocked) attempts);
  List.rev !fails
