type estimate = { mutable mu_hat : float; mutable var_hat : float }

(* The cross-section statistics live here, beside the filters that read
   them once per observation: inlined within this unit, their float
   results stay unboxed in every build, cross-module inlining or not. *)
let[@inline] cross_mean (o : Observation.t) =
  if o.n = 0.0 then nan else o.sum_rate /. o.n

let[@inline] cross_variance (o : Observation.t) =
  if o.n < 2.0 then 0.0
  else begin
    let nf = o.n in
    let mean = o.sum_rate /. nf in
    let v = (o.sum_sq -. (nf *. mean *. mean)) /. (nf -. 1.0) in
    Float.max 0.0 v
  end

(* Each kind keeps its state in a plain record.  The float-only records
   are stored flat, so the per-event stores do not allocate. *)

(* Exact advance of the first-order filter over a piecewise-constant input:
   while the input holds value [x], est(t + dt) = x + (est(t) - x) e^{-dt/Tm}. *)
type ewma = {
  t_m : float;
  mutable last_time : float;
  mutable in_mu : float;  (* input signal value held since last_time *)
  mutable in_var : float;
  mutable est_mu : float;
  mutable est_var : float;
}

(* Sliding time window: a ring buffer of constant-signal segments plus
   running integrals; old segments are evicted as the window slides.
   Partial trimming mutates the head segment's start in place, so each
   observe is O(1) amortized (every segment is pushed once, fully
   evicted at most once, and only the head is ever trimmed).  Segments
   are stored as a structure of unboxed float arrays. *)
type window = {
  t_w : float;
  mutable head : int;          (* ring index of the oldest segment *)
  mutable len : int;
  mutable t0s : Float.Array.t; (* rings, capacity = length t0s *)
  mutable t1s : Float.Array.t;
  mutable xs : Float.Array.t;
  mutable vs : Float.Array.t;
  sums : window_sums;
}

and window_sums = {
  mutable w_last_time : float;
  mutable w_in_mu : float;
  mutable w_in_var : float;
  mutable int_mu : float;  (* integral of x over the stored segments *)
  mutable int_var : float;
  mutable covered : float; (* total stored duration *)
}

(* Aggregate-only estimation (§7): the controller sees the aggregate rate
   and the flow count but not per-flow rates.  The per-flow mean follows
   directly; the per-flow variance is recovered from the *temporal*
   fluctuation of the per-flow average x = S/n, since for n independent
   homogeneous flows Var_time(x) = sigma^2 / n. *)
type aggregate = {
  a_t_m : float;
  mutable t_last : float;
  mutable in_x : float;
  mutable m1 : float; (* filtered x *)
  mutable m2 : float; (* filtered x^2 *)
  mutable last_n : float;
}

type kind =
  | Memoryless  (* the latest cross-section, kept in [est] *)
  | Ewma of ewma
  | Window of window
  | Aggregate of aggregate
  | Prior of prior

and prior = { prior_mu : float; prior_var : float; weight : float; inner : t }

(* [current] refreshes [est] in place (a [Memoryless] [observe] writes
   it) and returns the physical [some_est] = [Some est]: a decision per
   simulation event must not allocate.  Callers read the fields immediately (all do); the values
   are valid until the next [observe]/[current] on the same estimator.
   [ready]: an observation with a flow in it has been seen since the
   last reset ([current] of a [Prior] asks its inner estimator). *)
and t = {
  name : string;
  kind : kind;
  mutable ready : bool;
  est : estimate;
  some_est : estimate option;
}

let name t = t.name

let make name kind =
  let est = { mu_hat = 0.0; var_hat = 0.0 } in
  { name; kind; ready = false; est; some_est = Some est }

let window_grow s =
  let cap = Float.Array.length s.t0s in
  let ncap = if cap = 0 then 64 else 2 * cap in
  let copy src =
    (* unused slots hold NaN, never uninitialized memory *)
    let dst = Float.Array.make ncap nan in
    for k = 0 to s.len - 1 do
      Float.Array.unsafe_set dst k
        (Float.Array.unsafe_get src ((s.head + k) mod cap))
    done;
    dst
  in
  s.t0s <- copy s.t0s;
  s.t1s <- copy s.t1s;
  s.xs <- copy s.xs;
  s.vs <- copy s.vs;
  s.head <- 0

let window_evict s ~now =
  let cutoff = now -. s.t_w in
  let sums = s.sums in
  let continue = ref true in
  while !continue && s.len > 0 do
    let cap = Float.Array.length s.t0s in
    let h = s.head in
    let t0 = Float.Array.unsafe_get s.t0s h in
    let t1 = Float.Array.unsafe_get s.t1s h in
    if t1 <= cutoff then begin
      let d = t1 -. t0 in
      sums.int_mu <- sums.int_mu -. (d *. Float.Array.unsafe_get s.xs h);
      sums.int_var <- sums.int_var -. (d *. Float.Array.unsafe_get s.vs h);
      sums.covered <- sums.covered -. d;
      s.head <- (h + 1) mod cap;
      s.len <- s.len - 1
    end
    else if t0 < cutoff then begin
      (* trim the head segment in place to start at the cutoff *)
      let trimmed = cutoff -. t0 in
      sums.int_mu <- sums.int_mu -. (trimmed *. Float.Array.unsafe_get s.xs h);
      sums.int_var <-
        sums.int_var -. (trimmed *. Float.Array.unsafe_get s.vs h);
      sums.covered <- sums.covered -. trimmed;
      Float.Array.unsafe_set s.t0s h cutoff;
      continue := false
    end
    else continue := false
  done

(* Every observe below sees an observation with at least one flow. *)

let[@inline] ewma_observe s ~ready obs =
  let x = cross_mean obs in
  let v = cross_variance obs in
  if not ready then begin
    s.est_mu <- x;
    s.est_var <- v
  end
  else begin
    let dt = obs.Observation.now -. s.last_time in
    if dt > 0.0 then begin
      let decay = exp (-.dt /. s.t_m) in
      s.est_mu <- s.in_mu +. ((s.est_mu -. s.in_mu) *. decay);
      s.est_var <- s.in_var +. ((s.est_var -. s.in_var) *. decay)
    end
  end;
  s.last_time <- obs.Observation.now;
  s.in_mu <- x;
  s.in_var <- v

let window_observe s ~ready obs =
  let now = obs.Observation.now in
  let sums = s.sums in
  if ready && now > sums.w_last_time then begin
    if s.len = Float.Array.length s.t0s then window_grow s;
    let cap = Float.Array.length s.t0s in
    let tail = (s.head + s.len) mod cap in
    Float.Array.unsafe_set s.t0s tail sums.w_last_time;
    Float.Array.unsafe_set s.t1s tail now;
    Float.Array.unsafe_set s.xs tail sums.w_in_mu;
    Float.Array.unsafe_set s.vs tail sums.w_in_var;
    s.len <- s.len + 1;
    let d = now -. sums.w_last_time in
    sums.int_mu <- sums.int_mu +. (d *. sums.w_in_mu);
    sums.int_var <- sums.int_var +. (d *. sums.w_in_var);
    sums.covered <- sums.covered +. d
  end;
  window_evict s ~now;
  sums.w_last_time <- now;
  sums.w_in_mu <- cross_mean obs;
  sums.w_in_var <- cross_variance obs

let aggregate_observe s ~ready obs =
  let x = cross_mean obs in
  if not ready then begin
    s.m1 <- x;
    s.m2 <- x *. x
  end
  else begin
    let dt = obs.Observation.now -. s.t_last in
    if dt > 0.0 then begin
      let decay = exp (-.dt /. s.a_t_m) in
      s.m1 <- s.in_x +. ((s.m1 -. s.in_x) *. decay);
      s.m2 <- (s.in_x *. s.in_x) +. ((s.m2 -. (s.in_x *. s.in_x)) *. decay)
    end
  end;
  s.t_last <- obs.Observation.now;
  s.in_x <- x;
  s.last_n <- obs.Observation.n

let rec observe t obs =
  if obs.Observation.n >= 1.0 then begin
    (match t.kind with
    | Prior p -> observe p.inner obs
    | Memoryless ->
        t.est.mu_hat <- cross_mean obs;
        t.est.var_hat <- cross_variance obs
    | Ewma s -> ewma_observe s ~ready:t.ready obs
    | Window s -> window_observe s ~ready:t.ready obs
    | Aggregate s -> aggregate_observe s ~ready:t.ready obs);
    t.ready <- true
  end

let rec current t =
  let est = t.est in
  match t.kind with
  | Prior p -> (
      match current p.inner with
      | Some x ->
          est.mu_hat <-
            (p.weight *. p.prior_mu) +. ((1.0 -. p.weight) *. x.mu_hat);
          est.var_hat <-
            (p.weight *. p.prior_var) +. ((1.0 -. p.weight) *. x.var_hat);
          t.some_est
      | None -> None)
  | _ when not t.ready -> None
  | Memoryless -> t.some_est
  | Ewma s ->
      est.mu_hat <- s.est_mu;
      est.var_hat <- Float.max 0.0 s.est_var;
      t.some_est
  | Window { sums; _ } ->
      if sums.covered <= 0.0 then begin
        est.mu_hat <- sums.w_in_mu;
        est.var_hat <- Float.max 0.0 sums.w_in_var
      end
      else begin
        est.mu_hat <- sums.int_mu /. sums.covered;
        est.var_hat <- Float.max 0.0 (sums.int_var /. sums.covered)
      end;
      t.some_est
  | Aggregate s ->
      let var_of_x = Float.max 0.0 (s.m2 -. (s.m1 *. s.m1)) in
      est.mu_hat <- s.m1;
      est.var_hat <- s.last_n *. var_of_x;
      t.some_est

let rec reset t =
  t.ready <- false;
  match t.kind with
  | Prior p -> reset p.inner
  | Window s ->
      s.head <- 0;
      s.len <- 0;
      s.sums.int_mu <- 0.0;
      s.sums.int_var <- 0.0;
      s.sums.covered <- 0.0
  | Memoryless | Ewma _ | Aggregate _ -> ()

let rec copy t =
  let kind =
    match t.kind with
    | Memoryless -> Memoryless
    | Ewma s -> Ewma { s with t_m = s.t_m }
    | Window s ->
        Window
          { s with
            t0s = Float.Array.copy s.t0s;
            t1s = Float.Array.copy s.t1s;
            xs = Float.Array.copy s.xs;
            vs = Float.Array.copy s.vs;
            sums = { s.sums with covered = s.sums.covered } }
    | Aggregate s -> Aggregate { s with a_t_m = s.a_t_m }
    | Prior p -> Prior { p with inner = copy p.inner }
  in
  let est = { t.est with mu_hat = t.est.mu_hat } in
  { t with kind; est; some_est = Some est }

let memoryless () = make "memoryless" Memoryless

let with_prior ~mu ~var ~weight e =
  make
    (Printf.sprintf "prior(%s,w=%g)" e.name weight)
    (Prior { prior_mu = mu; prior_var = var; weight; inner = e })

let ewma ~t_m =
  if t_m < 0.0 then invalid_arg "Estimator.ewma: requires t_m >= 0";
  if t_m = 0.0 then make "ewma(0)" Memoryless
  else
    make
      (Printf.sprintf "ewma(T_m=%g)" t_m)
      (Ewma
         { t_m; last_time = 0.0; in_mu = 0.0; in_var = 0.0; est_mu = 0.0;
           est_var = 0.0 })

let sliding_window ~t_w =
  if t_w <= 0.0 then invalid_arg "Estimator.sliding_window: requires t_w > 0";
  make
    (Printf.sprintf "window(T_w=%g)" t_w)
    (Window
       { t_w; head = 0; len = 0;
         t0s = Float.Array.create 0; t1s = Float.Array.create 0;
         xs = Float.Array.create 0; vs = Float.Array.create 0;
         sums =
           { w_last_time = 0.0; w_in_mu = 0.0; w_in_var = 0.0;
             int_mu = 0.0; int_var = 0.0; covered = 0.0 } })

let aggregate_only ~t_m =
  if t_m <= 0.0 then invalid_arg "Estimator.aggregate_only: requires t_m > 0";
  make
    (Printf.sprintf "aggregate(T_m=%g)" t_m)
    (Aggregate
       { a_t_m = t_m; t_last = 0.0; in_x = 0.0; m1 = 0.0; m2 = 0.0;
         last_n = 0.0 })
