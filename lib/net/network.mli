(** Sharded multi-link network simulator.

    Each link is one {!Mbac_sim.Link} kernel (controller, measurement,
    flow table), the kernel {!Mbac_sim.Continuous_load} drives alone; a
    flow lives in its ingress link's slots.  Links are partitioned into
    contiguous shards, each with its own calendar wheel.  Flows
    traverse every link on their route: admission is end-to-end (a
    reject at any hop blocks the flow, attributed to the rejecting
    link), negotiated through a hop-by-hop setup walk with per-hop
    delay [setup_delay].  Shards run in windows of exactly one
    [setup_delay] lookahead.  One driver runs every width:
    [Parallel.effective_jobs shards] runners, each owning a contiguous
    range of shards, meet at a spin barrier after every window (at
    width 1, inline).  A message to a shard of the sender's own runner
    is pushed into that shard's wheel when it is sent; only messages
    between runners move through the conservative {!Exchange}, pushed
    at the barrier.

    {2 Determinism contract}

    Output is byte-identical for every [jobs] value and every shard
    count (see NETWORK.md for the mechanics: per-route RNG streams
    drawn only at the ingress event; messages within a runner pushed at
    send time and messages between runners at the barrier in
    [(src_shard, seq)] order, into a wheel that pops by
    [(time, push order)], so pop orders across widths differ only on
    exact time ties, which the contract assumes away as it does between
    1-shard and sharded runs; per-link event counters driving the float
    resyncs).  A 1-link network reproduces
    {!Mbac_sim.Continuous_load}'s Poisson loop draw-for-draw when
    driven from the same stream ({!route_stream_tag}). *)

type config = {
  topology : Topology.t;
  shards : int;  (** 1 .. min(links, 256) *)
  holding_time_mean : float;
  setup_delay : float;
      (** per-hop setup/notification delay; also the exchange lookahead
          and window length *)
  warmup : float;
  batch_length : float;
  target_p_q : float;
  max_time : float;
  max_events : int;  (** stop at the first window boundary at or past it *)
  max_flows_per_link : int;
}

val default_config :
  topology:Topology.t ->
  holding_time_mean:float ->
  target_p_q:float ->
  config
(** [shards = 1], [setup_delay = holding_time_mean /. 100.], warmup and
    batch length as {!Mbac_sim.Continuous_load.default_config} (one
    holding time, a fifth of one). *)

type link_result = {
  link : int;
  capacity : float;
  p_f : float;
  estimate_kind : [ `Direct | `Gaussian_fit ];
  p_f_point : float;
  mean_load : float;
  std_load : float;
  utilization : float;
  reserved : int;    (** hop admissions granted on this link *)
  link_blocked : int;(** rejections attributed to this link *)
  released : int;
  updates : int;     (** renegotiation rate changes applied *)
  ovf_episodes : int;
  ovf_time : float;
}

type result = {
  flows_admitted : int;  (** established end-to-end *)
  flows_blocked : int;
  flows_departed : int;
  blocking_probability : float;
  events : int;
  sim_time : float;
  windows : int;   (** barrier rounds (shard-count dependent) *)
  messages : int;
      (** cross-shard messages, counted when sent, whether pushed
          directly or through the exchange (shard-count dependent,
          [jobs] independent) *)
  links : link_result array;
}

val route_stream_tag : int -> string
(** Derivation tag of route [i]'s RNG stream
    ([Rng.derive ~seed ~tag:(route_stream_tag i)]); exposed so the
    equivalence suite can drive [Continuous_load] from route 0's
    stream. *)

val run :
  ?jobs:int ->
  seed:int ->
  config ->
  make_controller:(link:int -> capacity:float -> Mbac.Controller.t) ->
  make_source:(Mbac_stats.Rng.t -> start:float -> Mbac_traffic.Source.t) ->
  result
(** Runs the network to [max_events]/[max_time].  [make_controller] is
    called once per link at build time, in link order;
    [make_source] once per admitted flow, at its ingress, from its
    route's stream.
    @raise Invalid_argument on an invalid config. *)

val pp_result : Format.formatter -> result -> unit
(** Shard-count-invariant summary: network totals and the per-link
    table, without [windows]/[messages] (print those separately if
    wanted — they legitimately depend on the sharding). *)
