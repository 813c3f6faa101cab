(* Layer replays: each layer's public functions timed from outside, on
   state shaped like the workload (its source population, its pending
   event count, its model point), each inside one span whose ops count
   gives ns/op.  A warm-up pass precedes every timed pass so code and
   caches are warm, as they are in the middle of a simulation. *)

module Rng = Mbac_stats.Rng
module Sample = Mbac_stats.Sample
module Source = Mbac_traffic.Source
module CQ = Mbac_sim.Calendar_queue

type shape = {
  sources : int;  (** traffic sources alive at once *)
  params : Mbac.Params.t;  (** model point of the robust controller *)
  pending : int;  (** events pending in one calendar queue *)
  msgs_per_window : int;  (** exchange messages per barrier window *)
}

let sink = ref 0.0

(* Time [ops] calls of [f] inside a span named [name]; ns per call. *)
let timed spans name ~ops f =
  f (max 1 (ops / 10));
  let t0 = Clock.now_ns () in
  Spans.with_span spans name (fun () -> (f ops, ops));
  float_of_int (Clock.now_ns () - t0) /. float_of_int ops

let exponential spans ~seed ~ops =
  let rng = Rng.derive ~seed ~tag:"perfbench/exponential" in
  timed spans "stats.exponential" ~ops (fun k ->
      let acc = ref 0.0 in
      for _ = 1 to k do acc := !acc +. Sample.exponential rng ~mean:1.0 done;
      sink := !acc)

let gaussian spans ~seed ~ops =
  let rng = Rng.derive ~seed ~tag:"perfbench/gaussian" in
  timed spans "stats.gaussian" ~ops (fun k ->
      let acc = ref 0.0 in
      for _ = 1 to k do
        acc := !acc +. Sample.gaussian rng ~mu:1.0 ~sigma:0.3
      done;
      sink := !acc)

(* A random visiting order over [n] items, precomputed so the timed
   loop pays only an array read for it. *)
let random_order rng n =
  let mask = 65535 in
  (Array.init (mask + 1) (fun _ -> Rng.int rng n), mask)

(* [Source.fire] over the workload's whole source population, visited
   in random order: with 10^4 sources most visits miss the cache, as
   they do in the simulator's event order. *)
let fire spans ~seed ~ops (sh : shape) =
  let rng = Rng.derive ~seed ~tag:"perfbench/fire" in
  let p = sh.params in
  let rcbr =
    { Mbac_traffic.Rcbr.mu = p.Mbac.Params.mu; sigma = p.sigma; t_c = p.t_c }
  in
  let srcs =
    Array.init (max 1 sh.sources) (fun _ ->
        Mbac_traffic.Rcbr.create rng rcbr ~start:0.0)
  in
  let order, mask = random_order rng (Array.length srcs) in
  let i = ref 0 in
  timed spans "traffic.fire" ~ops (fun k ->
      for _ = 1 to k do
        let s = Array.unsafe_get srcs (Array.unsafe_get order (!i land mask)) in
        Source.fire s ~now:(Source.next_change s);
        incr i
      done)

(* Cross-sections the robust controller would see at the workload's
   model point: ~n flows whose rates random-walk, one flow changing per
   event, time advancing by the mean inter-event gap. *)
let observations rng (sh : shape) =
  let p = sh.params in
  let len = 4096 in
  let n = max 2 (int_of_float (0.95 *. p.Mbac.Params.n)) in
  let rates = Array.init n (fun _ -> Sample.gaussian rng ~mu:p.mu ~sigma:p.sigma) in
  let sum = ref (Array.fold_left ( +. ) 0.0 rates) in
  let sq = ref (Array.fold_left (fun a r -> a +. (r *. r)) 0.0 rates) in
  let sums = Float.Array.create len and sqs = Float.Array.create len in
  for j = 0 to len - 1 do
    let k = Rng.int rng n in
    let r = Sample.gaussian rng ~mu:p.mu ~sigma:p.sigma in
    sum := !sum -. rates.(k) +. r;
    sq := !sq -. (rates.(k) *. rates.(k)) +. (r *. r);
    rates.(k) <- r;
    Float.Array.set sums j !sum;
    Float.Array.set sqs j !sq
  done;
  let dt = p.t_c /. float_of_int n in
  (float_of_int n, sums, sqs, len - 1, dt)

let controller_replay spans name ~seed ~ops (sh : shape) call =
  let rng = Rng.derive ~seed ~tag:("perfbench/" ^ name) in
  let n, sums, sqs, mask, dt = observations rng sh in
  let c = Mbac.Controller.robust sh.params in
  let now = ref 0.0 and i = ref 0 in
  let next () =
    let j = !i land mask in
    incr i;
    now := !now +. dt;
    { Mbac.Observation.now = !now; n;
      sum_rate = Float.Array.unsafe_get sums j;
      sum_sq = Float.Array.unsafe_get sqs j }
  in
  (* fill the estimator's memory before timing, as a running sim has *)
  for _ = 1 to 4096 do Mbac.Controller.observe c (next ()) done;
  timed spans name ~ops (fun k -> for _ = 1 to k do call c (next ()) done)

let observe spans ~seed ~ops sh =
  controller_replay spans "core.observe" ~seed ~ops sh Mbac.Controller.observe

let admissible spans ~seed ~ops sh =
  controller_replay spans "core.admissible" ~seed ~ops sh (fun c o ->
      sink := float_of_int (Mbac.Controller.admissible c o))

(* The classic hold model at the workload's pending count: each flow
   keeps a rate change (mean T_c ahead) and a departure (mean T_h
   ahead) in the queue; each op pops the minimum and re-pushes it one
   fresh interval of its own kind later. *)
let queue_hold spans ~seed ~ops (sh : shape) =
  let rng = Rng.derive ~seed ~tag:"perfbench/hold" in
  let p = sh.params in
  let q = CQ.create () in
  let incs = Float.Array.init 65536 (fun _ -> Sample.exponential rng ~mean:1.0) in
  let mean_of kind = if kind = 0 then p.Mbac.Params.t_c else p.t_h in
  for j = 0 to max 1 sh.pending - 1 do
    let kind = j land 1 in
    CQ.push q ~time:(mean_of kind *. Float.Array.get incs (j land 65535)) kind
  done;
  let i = ref 0 in
  timed spans "sim.queue_hold" ~ops (fun k ->
      for _ = 1 to k do
        let t = CQ.min_time q and kind = CQ.min_payload q in
        CQ.drop_min q;
        let inc = Float.Array.unsafe_get incs (!i land 65535) in
        incr i;
        CQ.push q ~time:(t +. (mean_of kind *. inc)) kind
      done)

(* [Measurement.record] over load segments drawn around the workload's
   mean load, with the paper's batch length. *)
let record spans ~seed ~ops (sh : shape) =
  let rng = Rng.derive ~seed ~tag:"perfbench/record" in
  let p = sh.params in
  let capacity = Mbac.Params.capacity p in
  let batch = 2.0 *. Float.max (Mbac.Params.t_h_tilde p) p.t_c in
  let m =
    Mbac_sim.Measurement.create ~sample_spacing:batch ~capacity ~warmup:0.0
      ~batch_length:batch ()
  in
  let len = 65536 in
  let sd = p.sigma *. sqrt p.n in
  let loads =
    Float.Array.init len (fun _ -> Sample.gaussian rng ~mu:(0.97 *. capacity) ~sigma:sd)
  in
  let gaps =
    Float.Array.init len (fun _ ->
        Sample.exponential rng ~mean:(p.t_c /. p.n))
  in
  let now = ref 0.0 and i = ref 0 in
  timed spans "sim.record" ~ops (fun k ->
      for _ = 1 to k do
        let j = !i land (len - 1) in
        incr i;
        let t1 = !now +. Float.Array.unsafe_get gaps j in
        Mbac_sim.Measurement.record m ~t0:!now ~t1
          ~load:(Float.Array.unsafe_get loads j);
        now := t1
      done)

(* [Exchange.send] + [deliver] at 4 shards: per window, the workload's
   message batch from random source to random other shard, then every
   shard's inbox merged.  ns per message. *)
let exchange spans ~seed ~ops (sh : shape) =
  let rng = Rng.derive ~seed ~tag:"perfbench/exchange" in
  let shards = 4 in
  let ex = Mbac_net.Exchange.create ~shards in
  let batch = max 1 sh.msgs_per_window in
  let len = 65536 in
  let srcs = Array.init len (fun _ -> Rng.int rng shards) in
  let dsts =
    Array.mapi (fun _ s -> (s + 1 + Rng.int rng (shards - 1)) mod shards) srcs
  in
  let times = Float.Array.init len (fun _ -> Rng.float rng) in
  let i = ref 0 and w = ref 0.0 in
  let window k =
    let sent = ref 0 in
    while !sent < k do
      let m = min batch (k - !sent) in
      for _ = 1 to m do
        let j = !i land (len - 1) in
        incr i;
        Mbac_net.Exchange.send ex ~src:srcs.(j) ~dst:dsts.(j)
          ~time:(!w +. Float.Array.unsafe_get times j)
          ~kind:(j land 3) ~link:(j land 7) ~hop:1 ~route:(j land 31) ~seq:j
          ~islot:j ~igen:0 ~rate:1.0 ~t_end:0.0
      done;
      for dst = 0 to shards - 1 do
        ignore (Mbac_net.Exchange.deliver ex ~dst)
      done;
      w := !w +. 1.0;
      sent := !sent + m
    done
  in
  timed spans "net.exchange" ~ops window
