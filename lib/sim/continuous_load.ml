type arrival = [ `Infinite | `Poisson of float ]
type link = [ `Bufferless | `Renegotiation_blocking | `Buffered of float ]

type config = {
  capacity : float;
  holding_time_mean : float;
  arrival : arrival;
  link : link;
  utility : Mbac.Utility.t;
  warmup : float;
  batch_length : float;
  target_p_q : float;
  rel_ci : float;
  confidence : float;
  min_batches : int;
  check_every_events : int;
  max_time : float;
  max_events : int;
  max_flows : int;
}

let default_config ~capacity ~holding_time_mean ~target_p_q =
  { capacity; holding_time_mean;
    arrival = `Infinite;
    link = `Bufferless;
    utility = Mbac.Utility.Step;
    warmup = holding_time_mean;
    batch_length = holding_time_mean /. 5.0;
    target_p_q;
    rel_ci = 0.2;
    confidence = 0.95;
    min_batches = 16;
    check_every_events = 20_000;
    max_time = 1e12;
    max_events = 200_000_000;
    max_flows = 10_000_000 }

type result = {
  p_f : float;
  estimate_kind : [ `Direct | `Gaussian_fit ];
  converged : bool;
  ci_rel : float;
  mean_flows : float;
  mean_load : float;
  std_load : float;
  utilization : float;
  mean_utility : float;
  admitted : int;
  departed : int;
  blocked : int;
  blocking_probability : float;
  reneg_attempts : int;
  reneg_failures : int;
  reneg_failure_probability : float;
  buffer_loss_fraction : float;
  p_f_point : float;
  sim_time : float;
  events : int;
}

(* Events are packed into the queue's native-int payload so pushing and
   popping never allocates: a 2-bit tag, a 24-bit flow slot, and the
   slot's generation above.  The generation stamps queue entries against
   slot reuse: a [Change] left pending by a departed flow must not touch
   the slot's next occupant, so handlers compare the payload generation
   with the slot's current one and drop stale events — the job flow ids
   did under the old hashtable (ids were never reused). *)
let tag_arrive = 0
let tag_depart = 1
let tag_change = 2
let slot_bits = Link.slot_bits
let slot_mask = (1 lsl slot_bits) - 1
let[@inline] encode ~tag ~slot ~gen = tag lor (slot lsl 2) lor (gen lsl (slot_bits + 2))
let[@inline] payload_tag p = p land 3
let[@inline] payload_slot p = (p lsr 2) land slot_mask
let[@inline] payload_gen p = p lsr (slot_bits + 2)

(* The driver's per-event mutable floats live in their own all-float
   record so the simulator's stores stay unboxed (a mutable float field
   in the mixed [state] record below would box on every store); the
   link's own live in [Link.hot]. *)
type hot = {
  mutable next_snapshot : float;
  mutable next_window : float; (* next time-series boundary; inf when off *)
}

(* Time-series cursors: the flow/event totals live in plain fields on
   the hot path and are folded into the telemetry shard once per run —
   or, when [--series-out] wants live windows, once per window boundary.
   The cursor remembers how much of each total has been folded so far,
   so boundary syncs add exact deltas and the end-of-run remainder
   reproduces today's one-shot totals bit for bit. *)
type cursor = {
  mutable c_events : int;
  mutable c_admitted : int;
  mutable c_departed : int;
  mutable c_blocked : int;
  mutable c_reneg_attempts : int;
  mutable c_reneg_failures : int;
  mutable c_time : float;
}

(* The flows, the load, the controller and the measurement are the
   link kernel's; the driver adds the arrival process, the fluid buffer
   and the time-average statistics. *)
type state = {
  cfg : config;
  arrival_mean : float; (* 1/rate for `Poisson, hoisted; nan for `Infinite *)
  rng : Mbac_stats.Rng.t;
  make_source : Mbac_stats.Rng.t -> start:float -> Mbac_traffic.Source.t;
  queue : Calendar_queue.t;
  kernel : Link.t;
  buffer : Fluid_buffer.t option;
  utility_stats : Mbac_stats.Welford.Weighted.t;
  flow_count_stats : Mbac_stats.Welford.Weighted.t;
  hot : hot;
  mutable reneg_failures : int;
  cursor : cursor;
}

(* Run totals, folded in by [sync_counters] (per window boundary when
   the time series is on, once per run otherwise). *)
let m_events = Mbac_telemetry.Metrics.Handle.counter "sim_events_total"
let m_admitted = Mbac_telemetry.Metrics.Handle.counter "sim_flows_admitted_total"
let m_departed = Mbac_telemetry.Metrics.Handle.counter "sim_flows_departed_total"
let m_blocked = Mbac_telemetry.Metrics.Handle.counter "sim_flows_blocked_total"
let m_reneg_attempts =
  Mbac_telemetry.Metrics.Handle.counter "sim_reneg_attempts_total"
let m_reneg_failures =
  Mbac_telemetry.Metrics.Handle.counter "sim_reneg_failures_total"
let m_time = Mbac_telemetry.Metrics.Handle.sum "sim_time_simulated"

(* Recorded once per run, at its end. *)
let m_runs = Mbac_telemetry.Metrics.Handle.counter "sim_runs_total"
let m_lost_volume = Mbac_telemetry.Metrics.Handle.sum "sim_buffer_lost_volume"
let m_loss_time = Mbac_telemetry.Metrics.Handle.sum "sim_buffer_loss_time"
let g_last_p_f = Mbac_telemetry.Metrics.Handle.gauge "sim_last_p_f"
let g_last_utilization =
  Mbac_telemetry.Metrics.Handle.gauge "sim_last_utilization"

(* Sampled at each window close, for the series' gauge section. *)
let g_window_flows = Mbac_telemetry.Metrics.Handle.gauge "sim_window_flows"
let g_window_load = Mbac_telemetry.Metrics.Handle.gauge "sim_window_load"

(* Admit one fresh flow: its source is drawn, then its holding time. *)
let admit_one s =
  let l = s.kernel in
  let source = s.make_source s.rng ~start:l.Link.hot.now in
  let slot =
    Link.admit l ~key:0 ~rate:(Mbac_traffic.Source.rate source) ~source
  in
  let gen = Link.gen l slot in
  let holding =
    Mbac_stats.Sample.exponential s.rng ~mean:s.cfg.holding_time_mean
  in
  Calendar_queue.push s.queue ~time:(l.hot.now +. holding)
    (encode ~tag:tag_depart ~slot ~gen);
  Calendar_queue.push s.queue ~time:(Mbac_traffic.Source.next_change source)
    (encode ~tag:tag_change ~slot ~gen)

(* Infinite offered load: admit while the controller allows more flows
   than are present.  Each admission is observed before the next
   decision, so the controller reacts to its own admissions.  [obs]
   must be the link's observation of the current state: callers have
   always just refreshed it for their own controller notification, and
   each admission refreshes it again. *)
let try_admit s obs =
  while Link.admissible s.kernel obs do
    admit_one s
  done

(* Under infinite load every event ends by admitting while the
   controller allows; [obs] is the state it has just been shown. *)
let[@inline] refill s obs =
  match s.cfg.arrival with `Infinite -> try_admit s obs | `Poisson _ -> ()

(* A stale event still ends with that refill. *)
let stale s =
  match s.cfg.arrival with
  | `Infinite -> try_admit s (Link.observation s.kernel)
  | `Poisson _ -> ()

(* One arriving flow under the Poisson process: a single yes/no decision. *)
let handle_arrival s =
  let l = s.kernel in
  let obs = Link.observe l in
  if Link.admissible l obs then admit_one s else Link.reject l;
  match s.cfg.arrival with
  | `Poisson _ ->
      Calendar_queue.push s.queue
        ~time:
          (l.Link.hot.now
          +. Mbac_stats.Sample.exponential s.rng ~mean:s.arrival_mean)
        tag_arrive
  | `Infinite -> ()

(* Periodic estimator snapshots on a fixed virtual-time grid (one per
   batch), emitted only while tracing: the running cross-sectional
   estimate next to the measured overflow fraction so far. *)
let emit_snapshots s ~t1 =
  let l = s.kernel in
  while s.hot.next_snapshot <= t1 do
    let t = s.hot.next_snapshot in
    s.hot.next_snapshot <- s.hot.next_snapshot +. s.cfg.batch_length;
    let obs = Link.observation l in
    Mbac_telemetry.Trace.emit ~t ~kind:"estimator"
      [ ("n", Mbac_telemetry.Trace.Int l.Link.n);
        ("load", Mbac_telemetry.Trace.Float l.hot.sum_rate);
        ("mu_hat", Mbac_telemetry.Trace.Float (Mbac.Estimator.cross_mean obs));
        ("sigma_hat",
         Mbac_telemetry.Trace.Float (sqrt (Mbac.Estimator.cross_variance obs)));
        ("p_f_running",
         Mbac_telemetry.Trace.Float (Measurement.overflow_fraction l.meas)) ]
  done

(* Fold the not-yet-folded part of each running total into the shard.
   Unconditional increments (even by 0) so every counter registers —
   the snapshot's name set must not depend on what a run happened to
   do.  [upto] caps the virtual-time delta at the window boundary being
   closed (or the final [now] at run end).  The link's decision counters
   fold too, on their own only-when-non-zero rule. *)
let sync_counters s ~upto =
  let l = s.kernel and c = s.cursor in
  Link.fold_decisions l;
  Mbac_telemetry.Metrics.Handle.inc m_events ~by:(l.Link.events - c.c_events);
  c.c_events <- l.events;
  Mbac_telemetry.Metrics.Handle.inc m_admitted ~by:(l.admitted - c.c_admitted);
  c.c_admitted <- l.admitted;
  Mbac_telemetry.Metrics.Handle.inc m_departed ~by:(l.released - c.c_departed);
  c.c_departed <- l.released;
  Mbac_telemetry.Metrics.Handle.inc m_blocked ~by:(l.blocked - c.c_blocked);
  c.c_blocked <- l.blocked;
  Mbac_telemetry.Metrics.Handle.inc m_reneg_attempts
    ~by:(l.updates - c.c_reneg_attempts);
  c.c_reneg_attempts <- l.updates;
  Mbac_telemetry.Metrics.Handle.inc m_reneg_failures
    ~by:(s.reneg_failures - c.c_reneg_failures);
  c.c_reneg_failures <- s.reneg_failures;
  Mbac_telemetry.Metrics.Handle.add m_time (upto -. c.c_time);
  c.c_time <- upto

(* Time-series boundaries crossed by the segment ending at [t1]: close
   each window on the virtual-time grid — fold counter deltas, sample
   the window gauges, render the line.  Out of line and gated on the
   enabled flag in [record_segment], so the hot path pays one atomic
   read when the series is off. *)
let emit_windows s ~t1 =
  while s.hot.next_window <= t1 do
    let b = s.hot.next_window in
    s.hot.next_window <- b +. Mbac_telemetry.Timeseries.interval ();
    sync_counters s ~upto:b;
    Mbac_telemetry.Metrics.Handle.set_gauge g_window_flows
      (float_of_int s.kernel.Link.n);
    Mbac_telemetry.Metrics.Handle.set_gauge g_window_load
      s.kernel.hot.sum_rate;
    Mbac_telemetry.Timeseries.emit_window ~t:b
  done

let feed_buffer s b ~t0 ~t1 =
  (* feed through the warm-up (to build up a realistic level) but
     discard the counters at the warm-up boundary, like the overflow
     measurement does *)
  let load = s.kernel.Link.hot.sum_rate in
  if t0 < s.cfg.warmup && t1 > s.cfg.warmup then begin
    Fluid_buffer.feed b ~duration:(s.cfg.warmup -. t0) ~load;
    Fluid_buffer.reset_statistics b;
    Fluid_buffer.feed b ~duration:(t1 -. s.cfg.warmup) ~load
  end
  else begin
    Fluid_buffer.feed b ~duration:(t1 -. t0) ~load;
    if t1 <= s.cfg.warmup then Fluid_buffer.reset_statistics b
  end

(* No loops anywhere on the common path below (the snapshot and window
   loops are out of line and gated), so this inlines into [process] and
   the segment endpoints never box. *)
let[@inline] record_segment s ~t1 =
  let l = s.kernel in
  let t0 = l.Link.hot.now in
  Link.record l ~t1;
  if Mbac_telemetry.Trace.enabled () then emit_snapshots s ~t1;
  if Mbac_telemetry.Timeseries.enabled () then emit_windows s ~t1;
  (match s.buffer with
  | Some b when t1 > t0 -> feed_buffer s b ~t0 ~t1
  | Some _ | None -> ());
  if t1 > s.cfg.warmup then begin
    let t0' = Float.max t0 s.cfg.warmup in
    let w = t1 -. t0' in
    Mbac_stats.Welford.Weighted.add s.flow_count_stats ~weight:w
      (float_of_int l.n);
    let f =
      Mbac.Utility.delivered_fraction ~capacity:s.cfg.capacity
        ~load:l.hot.sum_rate
    in
    Mbac_stats.Welford.Weighted.add s.utility_stats ~weight:w
      (Mbac.Utility.eval s.cfg.utility f)
  end

let handle_depart s slot gen =
  let l = s.kernel in
  if Link.gen l slot = gen && Link.has_source l slot then
    refill s (Link.release l slot)
  else stale s (* cannot happen for departures; kept safe *)

let handle_change s slot gen =
  let l = s.kernel in
  if Link.gen l slot = gen && Link.has_source l slot then begin
    let source = Link.source l slot in
    Mbac_traffic.Source.fire source ~now:l.Link.hot.now;
    let desired = Mbac_traffic.Source.rate source in
    (* The paper's RCBR service (§2): "bandwidth renegotiations fail
       when the current aggregate bandwidth demand exceeds the link
       capacity".  We count an upward renegotiation as failed when
       the post-change aggregate demand exceeds capacity.  The
       dynamics remain those of the bufferless demand model: the
       admission controller sees demands (a failed flow keeps
       requesting), so blocking does not silently deflate the
       measured load. *)
    (match s.cfg.link with
    | `Renegotiation_blocking ->
        let old = Link.granted l slot in
        if desired > old && l.hot.sum_rate -. old +. desired > s.cfg.capacity
        then s.reneg_failures <- s.reneg_failures + 1
    | `Bufferless | `Buffered _ -> ());
    let obs = Link.set_rate l slot desired in
    Calendar_queue.push s.queue
      ~time:(Mbac_traffic.Source.next_change source)
      (encode ~tag:tag_change ~slot ~gen);
    refill s obs
  end
  else stale s (* event of a departed flow (or reused slot) *)

(* The one event body: account the constant-load segment up to [te],
   fire the event, count it. *)
let[@inline] process s payload ~te =
  record_segment s ~t1:te;
  let tag = payload_tag payload in
  if tag = tag_change then
    handle_change s (payload_slot payload) (payload_gen payload)
  else if tag = tag_depart then
    handle_depart s (payload_slot payload) (payload_gen payload)
  else handle_arrival s;
  Link.count_event s.kernel

(* ------------------------------------------------------------------ *)
(* Stepping API: the same machinery as [run], exposed one event at a
   time so the rare-event splitting engine can watch the load between
   events and snapshot/clone mid-run. *)

type sim = state

let start rng cfg ~controller ~make_source =
  if not (cfg.holding_time_mean > 0.0) then
    invalid_arg "Continuous_load.run: holding_time_mean <= 0";
  (match cfg.arrival with
  | `Poisson rate when not (rate > 0.0) ->
      invalid_arg "Continuous_load.run: Poisson rate <= 0"
  | `Poisson _ | `Infinite -> ());
  let kernel =
    Link.create ~telemetry:true ~capacity:cfg.capacity ~warmup:cfg.warmup
      ~batch_length:cfg.batch_length ~max_flows:cfg.max_flows controller
  in
  let s =
    { cfg;
      arrival_mean =
        (match cfg.arrival with
        | `Poisson rate -> 1.0 /. rate
        | `Infinite -> nan);
      rng; make_source;
      queue = Calendar_queue.create ();
      kernel;
      buffer =
        (match cfg.link with
        | `Buffered size -> Some (Fluid_buffer.create ~capacity:cfg.capacity ~size)
        | `Bufferless | `Renegotiation_blocking -> None);
      utility_stats = Mbac_stats.Welford.Weighted.create ();
      flow_count_stats = Mbac_stats.Welford.Weighted.create ();
      hot =
        { next_snapshot = cfg.warmup;
          next_window =
            (if Mbac_telemetry.Timeseries.enabled () then
               Mbac_telemetry.Timeseries.interval ()
             else Float.infinity) };
      reneg_failures = 0;
      cursor =
        { c_events = 0; c_admitted = 0; c_departed = 0; c_blocked = 0;
          c_reneg_attempts = 0; c_reneg_failures = 0; c_time = 0.0 } }
  in
  Mbac_telemetry.Timeseries.start_run
    ~label:(Mbac.Controller.name controller);
  if Mbac_telemetry.Trace.enabled () then
    Mbac_telemetry.Trace.emit ~t:0.0 ~kind:"run_start"
      [ ("controller",
         Mbac_telemetry.Trace.Str (Mbac.Controller.name controller));
        ("capacity", Mbac_telemetry.Trace.Float cfg.capacity) ];
  (match cfg.arrival with
  | `Infinite -> try_admit s (Link.observation kernel)
  | `Poisson _ ->
      Calendar_queue.push s.queue
        ~time:(Mbac_stats.Sample.exponential s.rng ~mean:s.arrival_mean)
        tag_arrive);
  s

let fold_decisions s = Link.fold_decisions s.kernel

let[@inline] now s = s.kernel.Link.hot.now
let[@inline] load s = s.kernel.Link.hot.sum_rate
let[@inline] flows s = s.kernel.Link.n
let[@inline] events_processed s = s.kernel.Link.events
let[@inline] has_pending s = not (Calendar_queue.is_empty s.queue)

let step s =
  let te = Calendar_queue.min_time s.queue in
  let payload = Calendar_queue.min_payload s.queue in
  Calendar_queue.drop_min s.queue;
  process s payload ~te

(* Deep copy.  Everything mutable is duplicated; [cfg] and [make_source]
   are immutable/stateless and shared.  Every source in the clone is
   re-bound to the clone's [rng] — the same single stream that
   [admit_one] hands to future sources — so a clone's randomness is
   fully determined by the [rng] passed here. *)
let clone s ~rng =
  { s with
    rng;
    queue = Calendar_queue.copy s.queue;
    kernel = Link.copy s.kernel ~rng;
    buffer = Option.map Fluid_buffer.copy s.buffer;
    utility_stats = Mbac_stats.Welford.Weighted.copy s.utility_stats;
    flow_count_stats = Mbac_stats.Welford.Weighted.copy s.flow_count_stats;
    hot = { s.hot with next_snapshot = s.hot.next_snapshot };
    cursor = { s.cursor with c_events = s.cursor.c_events } }

type snapshot = state

let snapshot s = clone s ~rng:(Mbac_stats.Rng.copy s.rng)

let restore ?rng snap =
  let rng =
    match rng with
    | Some r -> r
    | None -> Mbac_stats.Rng.copy snap.rng
  in
  clone snap ~rng

let run rng cfg ~controller ~make_source =
  let s = start rng cfg ~controller ~make_source in
  let l = s.kernel in
  let stopped = ref None in
  let running = ref true in
  (* Events processed since the last stop check.  A [mod] test on the
     running total would skip a check whenever a timestamp's events
     jump the counter across the boundary without landing on it — the
     check then waits for the total to hit an exact multiple again,
     which it may never do. *)
  let since_check = ref 0 in
  while !running do
    if not (has_pending s) then
      running := false (* cannot happen while flows exist *)
    else begin
      let before = l.Link.events in
      (* Every event at this timestamp, those it schedules there
         included, runs before the stop checks: sources on a grid (OU's
         fixed step, a modulated source's shared switch times) tie, and
         a check between them would end the run mid-instant. *)
      step s;
      while has_pending s && Calendar_queue.min_time s.queue = l.hot.now do
        step s
      done;
      since_check := !since_check + (l.events - before);
      if !since_check >= cfg.check_every_events then begin
        since_check := 0;
        match
          Measurement.check_stop ~confidence:cfg.confidence ~rel_ci:cfg.rel_ci
            ~min_batches:cfg.min_batches l.meas ~target:cfg.target_p_q
        with
        | Measurement.Running -> ()
        | v ->
            stopped := Some v;
            running := false
      end
    end;
    if l.hot.now >= cfg.max_time || l.events >= cfg.max_events then
      running := false
  done;
  (* Close an overflow episode left open at the end of the run, and fold
     the run's totals into the telemetry shard (exact totals, added once,
     instead of per-event increments on the hot path). *)
  Link.finish l;
  sync_counters s ~upto:l.hot.now;
  Mbac_telemetry.Metrics.Handle.inc m_runs;
  (match s.buffer with
  | Some b ->
      Mbac_telemetry.Metrics.Handle.add m_lost_volume
        (Fluid_buffer.lost_volume b);
      Mbac_telemetry.Metrics.Handle.add m_loss_time (Fluid_buffer.loss_time b)
  | None -> ());
  let p_f, estimate_kind, converged, ci_rel =
    match !stopped with
    | Some (Measurement.Converged { p_f; ci_rel }) -> (p_f, `Direct, true, ci_rel)
    | Some (Measurement.Below_target { p_f_fit; _ }) ->
        (p_f_fit, `Gaussian_fit, true, nan)
    | Some Measurement.Running | None ->
        let est, kind = Measurement.final_estimate l.meas in
        let ci =
          Measurement.relative_half_width l.meas ~confidence:cfg.confidence
        in
        (est, kind, false, ci)
  in
  let mean_load = Measurement.load_mean l.meas in
  let result =
  { p_f; estimate_kind; converged; ci_rel;
    mean_flows = Mbac_stats.Welford.Weighted.mean s.flow_count_stats;
    mean_load;
    std_load = Measurement.load_std l.meas;
    utilization = mean_load /. cfg.capacity;
    mean_utility = Mbac_stats.Welford.Weighted.mean s.utility_stats;
    admitted = l.admitted;
    departed = l.released;
    blocked = l.blocked;
    blocking_probability =
      (match cfg.arrival with
      | `Infinite -> nan
      | `Poisson _ ->
          let offered = l.blocked + l.admitted in
          if offered = 0 then nan
          else float_of_int l.blocked /. float_of_int offered);
    reneg_attempts = l.updates;
    reneg_failures = s.reneg_failures;
    reneg_failure_probability =
      (if l.updates = 0 then nan
       else float_of_int s.reneg_failures /. float_of_int l.updates);
    buffer_loss_fraction =
      (match s.buffer with
      | Some b -> Fluid_buffer.loss_time_fraction b
      | None -> nan);
    p_f_point = Measurement.point_fraction l.meas;
    sim_time = l.hot.now;
    events = l.events }
  in
  Mbac_telemetry.Metrics.Handle.set_gauge g_last_p_f result.p_f;
  Mbac_telemetry.Metrics.Handle.set_gauge g_last_utilization result.utilization;
  Mbac_telemetry.Trace.emit ~t:l.hot.now ~kind:"run_end"
    [ ("controller", Mbac_telemetry.Trace.Str (Mbac.Controller.name controller));
      ("p_f", Mbac_telemetry.Trace.Float result.p_f);
      ("utilization", Mbac_telemetry.Trace.Float result.utilization);
      ("overflow_episodes", Mbac_telemetry.Trace.Int l.ovf_episodes);
      ("overflow_time", Mbac_telemetry.Trace.Float l.hot.ovf_time);
      ("admitted", Mbac_telemetry.Trace.Int l.admitted);
      ("events", Mbac_telemetry.Trace.Int l.events) ];
  (* Close the partial window left open at run end (it carries the
     run-total counters folded above and the headline gauges). *)
  if
    Mbac_telemetry.Timeseries.enabled ()
    && l.hot.now > s.hot.next_window -. Mbac_telemetry.Timeseries.interval ()
  then begin
    Mbac_telemetry.Metrics.Handle.set_gauge g_window_flows (float_of_int l.n);
    Mbac_telemetry.Metrics.Handle.set_gauge g_window_load l.hot.sum_rate;
    Mbac_telemetry.Timeseries.emit_window ~t:l.hot.now
  end;
  result

let pp_result fmt r =
  Format.fprintf fmt
    "p_f=%.4g (%s%s, ci_rel=%.2g) util=%.3f mean_flows=%.1f load=%.2f±%.2f \
     adm=%d dep=%d t=%.3g ev=%d"
    r.p_f
    (match r.estimate_kind with `Direct -> "direct" | `Gaussian_fit -> "fit")
    (if r.converged then "" else ",capped")
    r.ci_rel r.utilization r.mean_flows r.mean_load r.std_load r.admitted
    r.departed r.sim_time r.events;
  if not (Float.is_nan r.blocking_probability) then
    Format.fprintf fmt " blocking=%.4g" r.blocking_probability;
  if not (Float.is_nan r.reneg_failure_probability) && r.reneg_failures > 0
  then Format.fprintf fmt " reneg_fail=%.4g" r.reneg_failure_probability;
  if not (Float.is_nan r.buffer_loss_fraction) then
    Format.fprintf fmt " buffer_loss=%.4g" r.buffer_loss_fraction
