module CQ = Mbac_sim.Calendar_queue
module Meas = Mbac_sim.Measurement
module Link = Mbac_sim.Link
module Handle = Mbac_telemetry.Metrics.Handle

type config = {
  topology : Topology.t;
  shards : int;
  holding_time_mean : float;
  setup_delay : float;
  warmup : float;
  batch_length : float;
  target_p_q : float;
  max_time : float;
  max_events : int;
  max_flows_per_link : int;
}

let default_config ~topology ~holding_time_mean ~target_p_q =
  { topology;
    shards = 1;
    holding_time_mean;
    setup_delay = holding_time_mean /. 100.0;
    warmup = holding_time_mean;
    batch_length = holding_time_mean /. 5.0;
    target_p_q;
    max_time = 1e12;
    max_events = 200_000_000;
    max_flows_per_link = 10_000_000 }

type link_result = {
  link : int;
  capacity : float;
  p_f : float;
  estimate_kind : [ `Direct | `Gaussian_fit ];
  p_f_point : float;
  mean_load : float;
  std_load : float;
  utilization : float;
  reserved : int;
  link_blocked : int;
  released : int;
  updates : int;
  ovf_episodes : int;
  ovf_time : float;
}

type result = {
  flows_admitted : int;
  flows_blocked : int;
  flows_departed : int;
  blocking_probability : float;
  events : int;
  sim_time : float;
  windows : int;
  messages : int;
  links : link_result array;
}

let route_stream_tag i = Printf.sprintf "net-route-%d" i

(* ---------- wheel payload encoding ----------

   Same 2-bit tag and 24-bit slot as [Continuous_load], but the
   generation is truncated to 18 bits to make room for a 19-bit route
   id: a depart/change event names its flow by slot in the ingress
   link's table, and the route id says which link that is (each link
   of a shard numbers its slots on its own).  18 generation bits are
   ample: a stale event only spans one holding time, during which any
   single slot is reused a handful of times, never 2^18. *)

let tag_arrive = 0 (* slot = local route index *)
let tag_depart = 1
let tag_change = 2
let tag_msg = 3 (* slot = arena index *)
let slot_bits = Link.slot_bits
let slot_mask = (1 lsl slot_bits) - 1
let gen_bits = 18
let gen_mask = (1 lsl gen_bits) - 1
let route_bits = 19
let route_mask = (1 lsl route_bits) - 1

let[@inline] encode ~tag ~slot ~gen ~route =
  tag
  lor (slot lsl 2)
  lor ((gen land gen_mask) lsl (slot_bits + 2))
  lor (route lsl (slot_bits + gen_bits + 2))

let[@inline] p_tag p = p land 3
let[@inline] p_slot p = (p lsr 2) land slot_mask
let[@inline] p_gen p = (p lsr (slot_bits + 2)) land gen_mask
let[@inline] p_route p = (p lsr (slot_bits + gen_bits + 2)) land route_mask

(* message kinds (arena / exchange payload) *)
let k_setup = 0
let k_confirm = 1
let k_reject = 2
let k_release = 3
let k_update = 4
let k_selfrel = 5

let[@inline] flow_key ~route ~seq = (route lsl 32) lor seq
let[@inline] flow_seq key = key land ((1 lsl 32) - 1)

(* ---------- telemetry ---------- *)

let m_events = Handle.counter "net_events_total"
let m_admitted = Handle.counter "net_flows_admitted_total"
let m_blocked = Handle.counter "net_flows_blocked_total"
let m_departed = Handle.counter "net_flows_departed_total"
let m_link_blocked = Handle.counter "net_link_blocked_total"
let m_messages = Handle.counter "net_messages_total"
let m_windows = Handle.counter "net_exchange_windows_total"
let m_ovf_episodes = Handle.counter "net_overflow_episodes_total"
let m_ovf_time = Handle.sum "net_overflow_time"
let m_time = Handle.sum "net_time_simulated"
let g_links = Handle.gauge "net_links"
let g_shards = Handle.gauge "net_shards"

(* ---------- per-link state ---------- *)

(* A link's flows, load, controller and measurement are its
   [Mbac_sim.Link] kernel, as for [Continuous_load]'s one link.  Flows
   that enter the network at this link live in the kernel's slots (wheel
   payloads and the setup walk name them by slot and generation); flows
   that only cross it are found by key in [transit]. *)
type link_state = {
  id : int;
  kernel : Link.t;
  transit : Int_table.t; (* flow key -> slot, transit flows only *)
}

type shard = {
  sh_id : int;
  wheel : CQ.t;
  links : link_state array;
  (* ingress routes of this shard *)
  sr_route : int array; (* local index -> global route id *)
  sr_rng : Mbac_stats.Rng.t array;
  sr_arrival_mean : float array;
  sr_seq : int array; (* per-route admitted-at-ingress counter *)
  (* arena of pending message events (wheel payloads are ints) *)
  mutable a_kind : int array;
  mutable a_link : int array;
  mutable a_hop : int array;
  mutable a_route : int array;
  mutable a_seq : int array;
  mutable a_islot : int array;
  mutable a_igen : int array;
  mutable a_rate : Float.Array.t;
  mutable a_tend : Float.Array.t;
  mutable a_free : int array;
  mutable a_free_top : int;
  mutable a_limit : int;
  (* the shards this shard's runner drains, [run_first .. run_last]:
     a message to one of them is pushed straight into its wheel *)
  mutable run_first : int;
  mutable run_last : int;
  mutable sh_events : int;
  mutable sh_admitted : int;
  mutable sh_blocked : int;
  mutable sh_departed : int;
  mutable sh_messages : int; (* cross-shard messages sent *)
}

type engine = {
  cfg : config;
  topo : Topology.t;
  d : float; (* setup delay = lookahead = window length *)
  owner : int array; (* link id -> shard id *)
  local_ix : int array; (* link id -> index into owner's [links] *)
  shards : shard array;
  ex : Exchange.t;
  make_source : Mbac_stats.Rng.t -> start:float -> Mbac_traffic.Source.t;
  mutable windows : int;
}

(* ---------- message arena ---------- *)

let grow_arena sh =
  let cap = Array.length sh.a_kind in
  let ncap = if cap = 0 then 256 else 2 * cap in
  let grow_int a = Array.append a (Array.make (ncap - cap) 0) in
  sh.a_kind <- grow_int sh.a_kind;
  sh.a_link <- grow_int sh.a_link;
  sh.a_hop <- grow_int sh.a_hop;
  sh.a_route <- grow_int sh.a_route;
  sh.a_seq <- grow_int sh.a_seq;
  sh.a_islot <- grow_int sh.a_islot;
  sh.a_igen <- grow_int sh.a_igen;
  let rate = Float.Array.create ncap in
  Float.Array.blit sh.a_rate 0 rate 0 cap;
  sh.a_rate <- rate;
  let tend = Float.Array.create ncap in
  Float.Array.blit sh.a_tend 0 tend 0 cap;
  sh.a_tend <- tend

let arena_alloc sh =
  if sh.a_free_top > 0 then begin
    sh.a_free_top <- sh.a_free_top - 1;
    sh.a_free.(sh.a_free_top)
  end
  else begin
    if sh.a_limit = Array.length sh.a_kind then grow_arena sh;
    if sh.a_limit > slot_mask then
      invalid_arg "Network: more pending messages than slot bits";
    let idx = sh.a_limit in
    sh.a_limit <- idx + 1;
    idx
  end

let arena_free sh idx =
  if sh.a_free_top = Array.length sh.a_free then begin
    let ncap = max 256 (2 * Array.length sh.a_free) in
    let free = Array.make ncap 0 in
    Array.blit sh.a_free 0 free 0 sh.a_free_top;
    sh.a_free <- free
  end;
  sh.a_free.(sh.a_free_top) <- idx;
  sh.a_free_top <- sh.a_free_top + 1

(* Queue a message as a wheel event on [sh] (delivery already decided).
   [push_local], [send_msg] and [Exchange.send] are [@inline] so a
   message's [time], [rate] and [t_end] stay unboxed from the handler
   that computes them to the arena, outbox or wheel that stores them. *)
let[@inline] push_local sh ~time ~kind ~link ~hop ~route ~seq ~islot
    ~igen ~rate ~t_end =
  let idx = arena_alloc sh in
  sh.a_kind.(idx) <- kind;
  sh.a_link.(idx) <- link;
  sh.a_hop.(idx) <- hop;
  sh.a_route.(idx) <- route;
  sh.a_seq.(idx) <- seq;
  sh.a_islot.(idx) <- islot;
  sh.a_igen.(idx) <- igen;
  Float.Array.set sh.a_rate idx rate;
  Float.Array.set sh.a_tend idx t_end;
  CQ.push sh.wheel ~time (encode ~tag:tag_msg ~slot:idx ~gen:0 ~route:0)

(* Route a message to the shard owning [link]: straight into that
   shard's wheel when our runner drains it (delivery times always land
   in a later window, so this never perturbs a drain of this window,
   ours or that of a shard the runner has yet to drain), through the
   exchange when another runner does. *)
let[@inline] send_msg eng sh ~time ~kind ~link ~hop ~route ~seq ~islot
    ~igen ~rate ~t_end =
  let dst = eng.owner.(link) in
  if dst <> sh.sh_id then sh.sh_messages <- sh.sh_messages + 1;
  if dst >= sh.run_first && dst <= sh.run_last then
    push_local eng.shards.(dst) ~time ~kind ~link ~hop ~route ~seq ~islot
      ~igen ~rate ~t_end
  else
    Exchange.send eng.ex ~src:sh.sh_id ~dst ~time ~kind ~link ~hop ~route
      ~seq ~islot ~igen ~rate ~t_end

let[@inline] link_of eng sh link_id = sh.links.(eng.local_ix.(link_id))

(* ---------- event handlers ----------

   Every handler runs after [Link.record] has moved the link's clock to
   the event time, which it reads back as [te]. *)

(* Ingress arrival on [route]: bit-for-bit the Poisson arrival path of
   [Continuous_load.handle_arrival] on the ingress link (same draw
   order: source, holding, next inter-arrival), plus the setup walk for
   multi-hop routes. *)
let handle_arrival eng sh ~lr l =
  let k = l.kernel in
  let te = k.Link.hot.now in
  let route = sh.sr_route.(lr) in
  let rng = sh.sr_rng.(lr) in
  let links = eng.topo.routes.(route).Topology.links in
  let obs = Link.observe k in
  if Link.admissible k obs then begin
    let source = eng.make_source rng ~start:te in
    let rate = Mbac_traffic.Source.rate source in
    let seq = sh.sr_seq.(lr) in
    sh.sr_seq.(lr) <- seq + 1;
    let slot =
      Link.admit k ~key:(flow_key ~route ~seq) ~rate ~source
    in
    let gen = Link.gen k slot in
    let t_end =
      te +. Mbac_stats.Sample.exponential rng ~mean:eng.cfg.holding_time_mean
    in
    CQ.push sh.wheel ~time:t_end (encode ~tag:tag_depart ~slot ~gen ~route);
    if Array.length links = 1 then begin
      CQ.push sh.wheel
        ~time:(Mbac_traffic.Source.next_change source)
        (encode ~tag:tag_change ~slot ~gen ~route);
      sh.sh_admitted <- sh.sh_admitted + 1
    end
    else
      send_msg eng sh ~time:(te +. eng.d) ~kind:k_setup ~link:links.(1)
        ~hop:1 ~route ~seq ~islot:slot ~igen:gen ~rate ~t_end
  end
  else begin
    Link.reject k;
    sh.sh_blocked <- sh.sh_blocked + 1
  end;
  CQ.push sh.wheel
    ~time:
      (te +. Mbac_stats.Sample.exponential rng ~mean:sh.sr_arrival_mean.(lr))
    (encode ~tag:tag_arrive ~slot:lr ~gen:0 ~route)

(* A departure or rate change of an ingress flow is stale once the flow
   has left its slot (departed, or rejected downstream): the slot then
   holds another generation, or no source. *)
let handle_depart sh ~slot ~gen l =
  let k = l.kernel in
  if Link.gen k slot land gen_mask = gen && Link.has_source k slot then begin
    ignore (Link.release k slot);
    sh.sh_departed <- sh.sh_departed + 1
  end

let handle_change eng sh ~slot ~gen ~route l =
  let k = l.kernel in
  if Link.gen k slot land gen_mask = gen && Link.has_source k slot then begin
    let source = Link.source k slot in
    let te = k.Link.hot.now in
    Mbac_traffic.Source.fire source ~now:te;
    let desired = Mbac_traffic.Source.rate source in
    ignore (Link.set_rate k slot desired);
    CQ.push sh.wheel
      ~time:(Mbac_traffic.Source.next_change source)
      (encode ~tag:tag_change ~slot ~gen ~route);
    let seq = flow_seq k.keys.(slot) in
    let links = eng.topo.routes.(route).Topology.links in
    for h = 1 to Array.length links - 1 do
      send_msg eng sh
        ~time:(te +. (float_of_int h *. eng.d))
        ~kind:k_update ~link:links.(h) ~hop:h ~route ~seq ~islot:0
        ~igen:0 ~rate:desired ~t_end:0.0
    done
  end

let handle_msg eng sh ~idx l =
  let k = l.kernel in
  let te = k.Link.hot.now in
  let kind = sh.a_kind.(idx) in
  let hop = sh.a_hop.(idx) in
  let route = sh.a_route.(idx) in
  let seq = sh.a_seq.(idx) in
  let islot = sh.a_islot.(idx) in
  let igen = sh.a_igen.(idx) in
  let rate = Float.Array.get sh.a_rate idx in
  let t_end = Float.Array.get sh.a_tend idx in
  arena_free sh idx;
  let links = eng.topo.routes.(route).Topology.links in
  if kind = k_setup then begin
    let obs = Link.observe k in
    if Link.admissible k obs then begin
      let key = flow_key ~route ~seq in
      Int_table.add l.transit ~key
        ~value:(Link.admit k ~key ~rate ~source:Link.no_source);
      (* the link releases itself at the flow's own end time, shifted by
         the same per-hop delay its setup took: no departure messages *)
      push_local sh
        ~time:(t_end +. (float_of_int hop *. eng.d))
        ~kind:k_selfrel ~link:l.id ~hop ~route ~seq ~islot:0 ~igen:0
        ~rate:0.0 ~t_end:0.0;
      if hop = Array.length links - 1 then
        send_msg eng sh ~time:(te +. eng.d) ~kind:k_confirm ~link:links.(0)
          ~hop:0 ~route ~seq ~islot ~igen ~rate:0.0 ~t_end:0.0
      else
        send_msg eng sh ~time:(te +. eng.d) ~kind:k_setup
          ~link:links.(hop + 1) ~hop:(hop + 1) ~route ~seq ~islot ~igen
          ~rate ~t_end
    end
    else begin
      Link.reject k;
      send_msg eng sh ~time:(te +. eng.d) ~kind:k_reject ~link:links.(0)
        ~hop ~route ~seq ~islot ~igen ~rate:0.0 ~t_end:0.0
    end
  end
  else if kind = k_confirm then begin
    (* unless the flow departed before the confirm arrived *)
    if Link.gen k islot = igen && Link.has_source k islot then begin
      let source = Link.source k islot in
      sh.sh_admitted <- sh.sh_admitted + 1;
      (* catch up on renegotiation epochs missed during the walk *)
      Mbac_traffic.Source.fire_until source ~upto:te;
      let desired = Mbac_traffic.Source.rate source in
      if desired <> Link.granted k islot then begin
        ignore (Link.set_rate k islot desired);
        for h = 1 to Array.length links - 1 do
          send_msg eng sh
            ~time:(te +. (float_of_int h *. eng.d))
            ~kind:k_update ~link:links.(h) ~hop:h ~route ~seq ~islot:0
            ~igen:0 ~rate:desired ~t_end:0.0
        done
      end;
      CQ.push sh.wheel
        ~time:(Mbac_traffic.Source.next_change source)
        (encode ~tag:tag_change ~slot:islot ~gen:igen ~route)
    end
  end
  else if kind = k_reject then begin
    (* unless the flow departed before the reject arrived *)
    if Link.gen k islot = igen && Link.has_source k islot then begin
      sh.sh_blocked <- sh.sh_blocked + 1;
      (* freeing the slot invalidates the pending depart event *)
      ignore (Link.release k islot);
      for h = 1 to hop - 1 do
        send_msg eng sh ~time:(te +. eng.d) ~kind:k_release
          ~link:links.(h) ~hop:h ~route ~seq ~islot:0 ~igen:0 ~rate:0.0
          ~t_end:0.0
      done
    end
  end
  else begin
    let key = flow_key ~route ~seq in
    let slot = Int_table.find l.transit ~key in
    (* absent: released already by the other of (release, self-release);
       a late update is dropped *)
    if slot >= 0 then
      if kind = k_update then ignore (Link.set_rate k slot rate)
      else begin
        (* k_release or k_selfrel *)
        Int_table.remove l.transit ~key;
        ignore (Link.release k slot)
      end
  end

(* ---------- shard drain ---------- *)

let advance eng sh ~w_end =
  let wheel = sh.wheel in
  while (not (CQ.is_empty wheel)) && CQ.min_time wheel < w_end do
    let te = CQ.min_time wheel in
    let payload = CQ.min_payload wheel in
    CQ.drop_min wheel;
    let tag = p_tag payload in
    let l =
      if tag = tag_msg then link_of eng sh sh.a_link.(p_slot payload)
      else link_of eng sh eng.topo.routes.(p_route payload).Topology.links.(0)
    in
    Link.record l.kernel ~t1:te;
    if tag = tag_arrive then handle_arrival eng sh ~lr:(p_slot payload) l
    else if tag = tag_depart then
      handle_depart sh ~slot:(p_slot payload) ~gen:(p_gen payload) l
    else if tag = tag_change then
      handle_change eng sh ~slot:(p_slot payload) ~gen:(p_gen payload)
        ~route:(p_route payload) l
    else handle_msg eng sh ~idx:(p_slot payload) l;
    sh.sh_events <- sh.sh_events + 1;
    Link.count_event l.kernel
  done

let deliver_all eng =
  let ex = eng.ex in
  for dst = 0 to Array.length eng.shards - 1 do
    let n = Exchange.deliver ex ~dst in
    let sh = eng.shards.(dst) in
    for i = 0 to n - 1 do
      push_local sh ~time:(Exchange.in_time ex i)
        ~kind:(Exchange.in_kind ex i) ~link:(Exchange.in_link ex i)
        ~hop:(Exchange.in_hop ex i) ~route:(Exchange.in_route ex i)
        ~seq:(Exchange.in_seq ex i) ~islot:(Exchange.in_islot ex i)
        ~igen:(Exchange.in_igen ex i) ~rate:(Exchange.in_rate ex i)
        ~t_end:(Exchange.in_tend ex i)
    done
  done

let total_events eng =
  Array.fold_left (fun acc sh -> acc + sh.sh_events) 0 eng.shards

let global_min_time eng =
  Array.fold_left
    (fun acc sh ->
      if CQ.is_empty sh.wheel then acc else Float.min acc (CQ.min_time sh.wheel))
    Float.infinity eng.shards

(* Window-boundary bookkeeping: count the window, check the stop
   conditions, and fast-forward over empty windows (snapping to the
   absolute [k * d] grid so the boundary sequence — and with it every
   stop decision — is a pure function of the global event set, not of
   the sharding). *)
let after_window eng ~w_start =
  eng.windows <- eng.windows + 1;
  let cfg = eng.cfg in
  let w_start = w_start +. eng.d in
  if total_events eng >= cfg.max_events || w_start >= cfg.max_time then None
  else begin
    let t_next = global_min_time eng in
    if t_next = Float.infinity then None
    else if t_next >= w_start +. eng.d then
      Some
        (Float.max w_start
           (float_of_int (int_of_float (t_next /. eng.d)) *. eng.d))
    else Some w_start
  end

(* ---------- the driver ---------- *)

(* One loop for every width.  [width] runners each own a contiguous
   range of shards, [r*S/width, (r+1)*S/width), and meet at a spin
   barrier after every window.  A message between two shards of one
   runner was pushed into its wheel when it was sent ([send_msg]), so
   only messages between runners wait in the exchange.  Runner 0 is the
   leader: at each barrier it drains the exchange into every shard's
   wheel and publishes the next window (or the stop), which the others
   pick up through the epoch counter.  All cross-runner plain-field
   reads are ordered by the [arrived]/[epoch] atomics.  Width 1 runs
   the loop inline; wider runs are one pool invocation for the whole
   run, claimed with [~chunk:1] so each of the [width] domains holds
   exactly one runner — required, because a domain blocked at the
   barrier inside one runner must never have a second runner queued
   behind it. *)
type barrier_ctl = {
  arrived : int Atomic.t;
  epoch : int Atomic.t;
  mutable c_w_end : float;
  mutable c_stop : bool;
}

let run_windows eng ~jobs =
  let shard_count = Array.length eng.shards in
  let width = Mbac_sim.Parallel.effective_jobs ?jobs shard_count in
  let ctl =
    { arrived = Atomic.make 0;
      epoch = Atomic.make 0;
      c_w_end = eng.d;
      c_stop = false }
  in
  (* runner [r] drains shards [lo r .. lo (r + 1) - 1] *)
  let lo r = r * shard_count / width in
  for r = 0 to width - 1 do
    for i = lo r to lo (r + 1) - 1 do
      eng.shards.(i).run_first <- lo r;
      eng.shards.(i).run_last <- lo (r + 1) - 1
    done
  done;
  let failures = Array.make width None in
  let w_start = ref 0.0 in
  let runner r () =
    let first = lo r and last = lo (r + 1) - 1 in
    let my_epoch = ref 0 in
    while not ctl.c_stop do
      (if failures.(r) = None then
         try
           for i = first to last do
             advance eng eng.shards.(i) ~w_end:ctl.c_w_end
           done
         with e -> failures.(r) <- Some e);
      if r = 0 then begin
        while Atomic.get ctl.arrived < width - 1 do
          Domain.cpu_relax ()
        done;
        Atomic.set ctl.arrived 0;
        (if Array.exists Option.is_some failures then ctl.c_stop <- true
         else begin
           deliver_all eng;
           match after_window eng ~w_start:!w_start with
           | Some w ->
               w_start := w;
               ctl.c_w_end <- w +. eng.d
           | None -> ctl.c_stop <- true
         end);
        Atomic.incr ctl.epoch
      end
      else begin
        Atomic.incr ctl.arrived;
        while Atomic.get ctl.epoch <= !my_epoch do
          Domain.cpu_relax ()
        done
      end;
      incr my_epoch
    done;
    Option.iter raise failures.(r)
  in
  if width <= 1 then runner 0 ()
  else
    (* [~count_tasks:false]: the task count is the width, so counting
       would make the metric snapshot jobs-dependent. *)
    ignore
      (Mbac_sim.Parallel.run_tasks ?jobs ~chunk:1 ~count_tasks:false
         (List.init width runner))

(* ---------- engine construction ---------- *)

let build ~seed cfg ~make_controller ~make_source =
  let topo = cfg.topology in
  let nl = Topology.num_links topo in
  let nr = Topology.num_routes topo in
  if cfg.shards < 1 || cfg.shards > min nl 256 then
    invalid_arg "Network.run: shards outside 1..min(links, 256)";
  if nr > route_mask then invalid_arg "Network.run: too many routes";
  (* an infinite window would never reach a barrier, so never stop *)
  if not (Float.is_finite cfg.setup_delay && cfg.setup_delay > 0.0) then
    invalid_arg "Network.run: setup_delay must be finite and > 0";
  if not (cfg.holding_time_mean > 0.0) then
    invalid_arg "Network.run: holding_time_mean <= 0";
  let owner = Array.init nl (fun i -> i * cfg.shards / nl) in
  let local_ix = Array.make nl 0 in
  let shards =
    Array.init cfg.shards (fun si ->
        let link_ids = ref [] in
        for i = nl - 1 downto 0 do
          if owner.(i) = si then link_ids := i :: !link_ids
        done;
        let link_ids = Array.of_list !link_ids in
        Array.iteri (fun ix id -> local_ix.(id) <- ix) link_ids;
        let links =
          Array.map
            (fun id ->
              let capacity = topo.Topology.capacities.(id) in
              { id;
                kernel =
                  Link.create ~telemetry:false ~capacity ~warmup:cfg.warmup
                    ~batch_length:cfg.batch_length
                    ~max_flows:cfg.max_flows_per_link
                    (make_controller ~link:id ~capacity);
                transit = Int_table.create () })
            link_ids
        in
        let route_ids = ref [] in
        for r = nr - 1 downto 0 do
          if owner.(topo.Topology.routes.(r).Topology.links.(0)) = si then
            route_ids := r :: !route_ids
        done;
        let sr_route = Array.of_list !route_ids in
        { sh_id = si;
          wheel = CQ.create ();
          links;
          sr_route;
          sr_rng =
            Array.map
              (fun r ->
                Mbac_stats.Rng.derive ~seed ~tag:(route_stream_tag r))
              sr_route;
          sr_arrival_mean =
            Array.map
              (fun r -> 1.0 /. topo.Topology.routes.(r).Topology.rate)
              sr_route;
          sr_seq = Array.make (Array.length sr_route) 0;
          a_kind = [||]; a_link = [||]; a_hop = [||]; a_route = [||];
          a_seq = [||]; a_islot = [||]; a_igen = [||];
          a_rate = Float.Array.create 0; a_tend = Float.Array.create 0;
          a_free = [||]; a_free_top = 0; a_limit = 0;
          run_first = si; run_last = si;
          sh_events = 0; sh_admitted = 0; sh_blocked = 0;
          sh_departed = 0; sh_messages = 0 })
  in
  let eng =
    { cfg; topo; d = cfg.setup_delay; owner; local_ix; shards;
      ex = Exchange.create ~shards:cfg.shards; make_source; windows = 0 }
  in
  (* Initial conditions mirror [Continuous_load.start]: each controller
     has seen the empty link ([Link.create]), then each ingress route
     draws its first inter-arrival gap from its own stream. *)
  Array.iter
    (fun sh ->
      Array.iteri
        (fun lr r ->
          CQ.push sh.wheel
            ~time:
              (Mbac_stats.Sample.exponential sh.sr_rng.(lr)
                 ~mean:sh.sr_arrival_mean.(lr))
            (encode ~tag:tag_arrive ~slot:lr ~gen:0 ~route:r))
        sh.sr_route)
    shards;
  eng

(* ---------- results ---------- *)

let collect eng =
  let cfg = eng.cfg in
  let sim_time =
    Array.fold_left
      (fun acc sh ->
        Array.fold_left
          (fun acc l -> Float.max acc l.kernel.Link.hot.now)
          acc sh.links)
      0.0 eng.shards
  in
  let links = Array.make (Topology.num_links eng.topo) None in
  Array.iter
    (fun sh ->
      Array.iter
        (fun { id; kernel = k; _ } ->
          Link.finish k;
          Link.fold_decisions k;
          let p_f, estimate_kind =
            Meas.final_estimate k.Link.meas ~target:cfg.target_p_q
          in
          let mean_load = Meas.load_mean k.meas in
          links.(id) <-
            Some
              { link = id;
                capacity = k.capacity;
                p_f;
                estimate_kind;
                p_f_point = Meas.point_fraction k.meas;
                mean_load;
                std_load = Meas.load_std k.meas;
                utilization = mean_load /. k.capacity;
                reserved = k.admitted;
                link_blocked = k.blocked;
                released = k.released;
                updates = k.updates;
                ovf_episodes = k.ovf_episodes;
                ovf_time = k.hot.ovf_time })
        sh.links)
    eng.shards;
  let links = Array.map Option.get links in
  let admitted = Array.fold_left (fun a sh -> a + sh.sh_admitted) 0 eng.shards in
  let blocked = Array.fold_left (fun a sh -> a + sh.sh_blocked) 0 eng.shards in
  let departed =
    Array.fold_left (fun a sh -> a + sh.sh_departed) 0 eng.shards
  in
  let events = total_events eng in
  let messages =
    Array.fold_left (fun a sh -> a + sh.sh_messages) 0 eng.shards
  in
  (* fold run totals into the (submitting domain's) telemetry shard *)
  Handle.inc m_events ~by:events;
  Handle.inc m_admitted ~by:admitted;
  Handle.inc m_blocked ~by:blocked;
  Handle.inc m_departed ~by:departed;
  Handle.inc m_link_blocked
    ~by:(Array.fold_left (fun a l -> a + l.link_blocked) 0 links);
  Handle.inc m_messages ~by:messages;
  Handle.inc m_windows ~by:eng.windows;
  Handle.inc m_ovf_episodes
    ~by:(Array.fold_left (fun a l -> a + l.ovf_episodes) 0 links);
  Handle.add m_ovf_time
    (Array.fold_left (fun a (l : link_result) -> a +. l.ovf_time) 0.0 links);
  Handle.add m_time sim_time;
  Handle.set_gauge g_links (float_of_int (Array.length links));
  Handle.set_gauge g_shards (float_of_int cfg.shards);
  { flows_admitted = admitted;
    flows_blocked = blocked;
    flows_departed = departed;
    blocking_probability =
      (let offered = admitted + blocked in
       if offered = 0 then nan
       else float_of_int blocked /. float_of_int offered);
    events;
    sim_time;
    windows = eng.windows;
    messages;
    links }

let run ?jobs ~seed cfg ~make_controller ~make_source =
  let eng = build ~seed cfg ~make_controller ~make_source in
  run_windows eng ~jobs;
  collect eng

(* ---------- printing ---------- *)

let fmt_f v = if Float.is_nan v then "nan" else Printf.sprintf "%.6g" v

let pp_result ppf r =
  Format.fprintf ppf
    "network: admitted %d blocked %d departed %d blocking %s@."
    r.flows_admitted r.flows_blocked r.flows_departed
    (fmt_f r.blocking_probability);
  Format.fprintf ppf "events %d sim_time %s@." r.events (fmt_f r.sim_time);
  Array.iter
    (fun l ->
      Format.fprintf ppf
        "link %d: capacity %s p_f %s (%s) util %s load %s+-%s reserved %d \
         blocked %d released %d updates %d ovf %d@."
        l.link (fmt_f l.capacity) (fmt_f l.p_f)
        (match l.estimate_kind with
        | `Direct -> "direct"
        | `Gaussian_fit -> "gaussian-fit")
        (fmt_f l.utilization) (fmt_f l.mean_load) (fmt_f l.std_load)
        l.reserved l.link_blocked l.released l.updates l.ovf_episodes)
    r.links
