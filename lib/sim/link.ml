type hot = {
  mutable now : float;
  mutable sum_rate : float;
  mutable sum_sq : float;
  mutable ovf_start : float;
  mutable ovf_excess : float;
  mutable ovf_time : float;
}

type t = {
  capacity : float;
  batch_length : float;
  max_flows : int;
  telemetry : bool;
  controller : Mbac.Controller.t;
  meas : Measurement.t;
  hot : hot;
  mutable granted : Float.Array.t;
  mutable keys : int array;
  mutable gens : int array;
  mutable sources : Mbac_traffic.Source.t option array;
  mutable free : int array;
  mutable free_top : int;
  mutable limit : int;
  mutable n : int;
  mutable admitted : int;
  mutable blocked : int;
  mutable released : int;
  mutable updates : int;
  mutable events : int;
  mutable ovf_episodes : int;
  mutable decisions : int;
  mutable decision_admits : int;
}

let slot_bits = 24

(* Episode counters fire on every overflow-episode boundary; resolve
   their names once instead of hashing per update. *)
let m_ovf_episodes = Mbac_telemetry.Metrics.Handle.counter "sim_overflow_episodes_total"
let m_ovf_time = Mbac_telemetry.Metrics.Handle.sum "sim_overflow_time"
let m_ovf_excess = Mbac_telemetry.Metrics.Handle.sum "sim_overflow_excess_volume"

(* Normalized by batch_length so the histogram shape is identical across
   sweep cells with different batch lengths (shards with
   differently-shaped same-name histograms cannot merge). *)
let m_ovf_duration =
  Mbac_telemetry.Metrics.Handle.histogram "sim_overflow_episode_duration_batches"
    ~lo:0.0 ~hi:20.0 ~bins:40

(* Same duration, raw (seconds of virtual time) in a log-bucketed
   quantile histogram: scale-free, so episodes past 20 batch lengths —
   overflow of the fixed-bucket shape above — keep a readable p99. *)
let m_ovf_duration_s =
  Mbac_telemetry.Metrics.Handle.qhist "sim_overflow_episode_duration_seconds"

let[@inline] observation l =
  Mbac.Observation.make ~now:l.hot.now ~n:l.n ~sum_rate:l.hot.sum_rate
    ~sum_sq:l.hot.sum_sq

let[@inline] observe l =
  let obs = observation l in
  Mbac.Controller.observe l.controller obs;
  obs

(* Admission-test counters, bumped as plain fields per test and folded
   into the shard by [fold_decisions] at the drivers' sync points. *)
let m_decisions = Mbac_telemetry.Metrics.Handle.counter "mbac_decisions_total"
let m_admit = Mbac_telemetry.Metrics.Handle.counter "mbac_admit_total"
let m_reject = Mbac_telemetry.Metrics.Handle.counter "mbac_reject_total"

let[@inline] admissible l obs =
  let m = Mbac.Controller.admissible l.controller obs in
  l.decisions <- l.decisions + 1;
  if Mbac.Observation.count obs < m then
    l.decision_admits <- l.decision_admits + 1;
  l.n < m && l.n < l.max_flows

(* Only non-zero deltas touch the shard: a counter registers once it
   has counted something, so a run that rejected nothing has no reject
   counter. *)
let fold_decisions l =
  let fold h by = if by > 0 then Mbac_telemetry.Metrics.Handle.inc h ~by in
  fold m_decisions l.decisions;
  fold m_admit l.decision_admits;
  fold m_reject (l.decisions - l.decision_admits);
  l.decisions <- 0;
  l.decision_admits <- 0

let create ~telemetry ~capacity ~warmup ~batch_length ~max_flows controller =
  if not (capacity > 0.0) then invalid_arg "Link.create: capacity <= 0";
  let meas =
    Measurement.create ~sample_spacing:batch_length ~capacity ~warmup
      ~batch_length ()
  in
  Mbac.Controller.reset controller;
  let l =
    { capacity; batch_length; max_flows; telemetry; controller; meas;
      hot =
        { now = 0.0; sum_rate = 0.0; sum_sq = 0.0;
          ovf_start = nan; ovf_excess = 0.0; ovf_time = 0.0 };
      granted = Float.Array.create 0;
      keys = [||]; gens = [||]; sources = [||]; free = [||];
      free_top = 0; limit = 0;
      n = 0; admitted = 0; blocked = 0; released = 0; updates = 0;
      events = 0; ovf_episodes = 0; decisions = 0; decision_admits = 0 }
  in
  ignore (observe l);
  l

(* Everything mutable is duplicated; every source is re-bound to [rng]
   (the clone's single stream), in slot order.  The clone starts with no
   unfolded decisions: those are the original's to fold. *)
let copy l ~rng =
  { l with
    decisions = 0;
    decision_admits = 0;
    controller = Mbac.Controller.copy l.controller;
    meas = Measurement.copy l.meas;
    hot = { l.hot with now = l.hot.now };
    granted = Float.Array.copy l.granted;
    keys = Array.copy l.keys;
    gens = Array.copy l.gens;
    sources =
      Array.map
        (Option.map (fun src -> Mbac_traffic.Source.copy src rng))
        l.sources;
    free = Array.copy l.free }

(* ---------- slot table ---------- *)

(* The table and the free stack start small and double, so a link of
   a few flows holds little more than it uses. *)
let first_slots = 64

let grow l =
  let cap = Array.length l.keys in
  let ncap = if cap = 0 then first_slots else 2 * cap in
  let granted = Float.Array.create ncap in
  Float.Array.blit l.granted 0 granted 0 cap;
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  l.granted <- granted;
  l.keys <- extend l.keys (-1);
  l.gens <- extend l.gens 0;
  l.sources <- extend l.sources None

let alloc_slot l =
  if l.free_top > 0 then begin
    l.free_top <- l.free_top - 1;
    l.free.(l.free_top)
  end
  else begin
    if l.limit = Array.length l.keys then grow l;
    if l.limit >= 1 lsl slot_bits then
      invalid_arg "Link.admit: more concurrent flows than slot bits";
    let slot = l.limit in
    l.limit <- slot + 1;
    slot
  end

let free_slot l slot =
  l.keys.(slot) <- -1;
  l.sources.(slot) <- None;
  l.gens.(slot) <- l.gens.(slot) + 1;
  if l.free_top = Array.length l.free then begin
    let free = Array.make (max first_slots (2 * l.free_top)) 0 in
    Array.blit l.free 0 free 0 l.free_top;
    l.free <- free
  end;
  l.free.(l.free_top) <- slot;
  l.free_top <- l.free_top + 1

(* Every function below that takes a float and runs per event is
   [@inline]: out of line, the float argument would be boxed on every
   call. *)

let[@inline] admit l obs ~key ~rate ~source =
  let slot = alloc_slot l in
  Float.Array.set l.granted slot rate;
  l.keys.(slot) <- key;
  l.sources.(slot) <- source;
  l.n <- l.n + 1;
  l.hot.sum_rate <- l.hot.sum_rate +. rate;
  l.hot.sum_sq <- l.hot.sum_sq +. (rate *. rate);
  l.admitted <- l.admitted + 1;
  let obs' = Mbac.Observation.admit obs ~rate in
  Mbac.Controller.observe l.controller obs';
  slot

let reject l = l.blocked <- l.blocked + 1

let release l slot =
  let g = Float.Array.get l.granted slot in
  free_slot l slot;
  l.n <- l.n - 1;
  l.hot.sum_rate <- l.hot.sum_rate -. g;
  l.hot.sum_sq <- l.hot.sum_sq -. (g *. g);
  if l.n = 0 then begin
    (* clear float-cancellation residue *)
    l.hot.sum_rate <- 0.0;
    l.hot.sum_sq <- 0.0
  end;
  l.released <- l.released + 1;
  let obs = observation l in
  Mbac.Controller.observe l.controller obs;
  Mbac.Controller.on_depart l.controller obs;
  obs

let[@inline] set_rate l slot rate =
  let old = Float.Array.get l.granted slot in
  l.updates <- l.updates + 1;
  Float.Array.set l.granted slot rate;
  l.hot.sum_rate <- l.hot.sum_rate +. rate -. old;
  l.hot.sum_sq <- l.hot.sum_sq +. (rate *. rate) -. (old *. old);
  observe l

let[@inline] granted l slot = Float.Array.get l.granted slot
let[@inline] gen l slot = l.gens.(slot)
let[@inline] source l slot = l.sources.(slot)

(* Counter the slow drift of the incrementally-maintained sums by
   recomputing them from the slot table (linear slot scan). *)
let resync l =
  let sum = ref 0.0 and sq = ref 0.0 in
  for slot = 0 to l.limit - 1 do
    if Array.unsafe_get l.keys slot >= 0 then begin
      let g = Float.Array.unsafe_get l.granted slot in
      sum := !sum +. g;
      sq := !sq +. (g *. g)
    end
  done;
  l.hot.sum_rate <- !sum;
  l.hot.sum_sq <- !sq

(* Triggered by the link's own event count, which no sharding of a
   network changes, so the post-resync bits land at the same virtual
   instant whoever drives the link. *)
let[@inline] count_event l =
  l.events <- l.events + 1;
  if l.events mod 4_000_000 = 0 then resync l

(* ---------- overflow episodes ---------- *)

(* An episode opens when the aggregate first exceeds capacity and closes
   on the first segment back at or under it (or, [~truncated], at the
   end of the run).  With [telemetry] the counters are always on; the
   start/end trace events only render when tracing is enabled (and
   their field lists are only built then). *)
let open_episode l ~t0 =
  l.hot.ovf_start <- t0;
  l.hot.ovf_excess <- 0.0;
  l.ovf_episodes <- l.ovf_episodes + 1;
  if l.telemetry && Mbac_telemetry.Trace.enabled () then
    Mbac_telemetry.Trace.emit ~t:t0 ~kind:"overflow_start"
      [ ("load", Mbac_telemetry.Trace.Float l.hot.sum_rate);
        ("capacity", Mbac_telemetry.Trace.Float l.capacity);
        ("n", Mbac_telemetry.Trace.Int l.n) ]

let close_episode l ~t0 ~truncated =
  let duration = t0 -. l.hot.ovf_start in
  l.hot.ovf_time <- l.hot.ovf_time +. duration;
  if l.telemetry then begin
    Mbac_telemetry.Metrics.Handle.inc m_ovf_episodes;
    Mbac_telemetry.Metrics.Handle.add m_ovf_time duration;
    Mbac_telemetry.Metrics.Handle.add m_ovf_excess l.hot.ovf_excess;
    Mbac_telemetry.Metrics.Handle.observe m_ovf_duration
      (duration /. l.batch_length);
    Mbac_telemetry.Metrics.Handle.observe_q m_ovf_duration_s duration;
    if Mbac_telemetry.Trace.enabled () then
      Mbac_telemetry.Trace.emit ~t:t0 ~kind:"overflow_end"
        ([ ("start", Mbac_telemetry.Trace.Float l.hot.ovf_start);
           ("duration", Mbac_telemetry.Trace.Float duration);
           ("excess_volume", Mbac_telemetry.Trace.Float l.hot.ovf_excess) ]
        @ if truncated then [ ("truncated", Mbac_telemetry.Trace.Bool true) ]
          else [])
  end;
  l.hot.ovf_start <- nan;
  l.hot.ovf_excess <- 0.0

let[@inline] track_overflow l ~t0 ~t1 =
  let over = l.hot.sum_rate > l.capacity in
  let in_episode = not (Float.is_nan l.hot.ovf_start) in
  if over && not in_episode then open_episode l ~t0
  else if (not over) && in_episode then
    close_episode l ~t0 ~truncated:false;
  if over then
    l.hot.ovf_excess <-
      l.hot.ovf_excess +. ((l.hot.sum_rate -. l.capacity) *. (t1 -. t0))

let[@inline] record l ~t1 =
  let t0 = l.hot.now in
  Measurement.record l.meas ~t0 ~t1 ~load:l.hot.sum_rate;
  if t1 > t0 then track_overflow l ~t0 ~t1;
  l.hot.now <- t1

let finish l =
  if not (Float.is_nan l.hot.ovf_start) then
    close_episode l ~t0:l.hot.now ~truncated:true
