type estimate = { mutable mu_hat : float; mutable var_hat : float }

type t = {
  name : string;
  observe : Observation.t -> unit;
  current : unit -> estimate option;
  reset : unit -> unit;
  copy : unit -> t;
}

let name t = t.name
let observe t obs = t.observe obs
let current t = t.current ()
let reset t = t.reset ()
let copy t = t.copy ()

type snapshot = { mu : float; var : float }

(* The cached [estimate] record returned by [current] is refreshed in
   place, so it must never escape the observing domain; this reads it
   immediately (per the [current] contract) into a fresh immutable
   record that is safe to publish anywhere. *)
let snapshot_estimate t =
  match t.current () with
  | Some e -> Some { mu = e.mu_hat; var = e.var_hat }
  | None -> None

(* Estimator state hides inside the closures, so each constructor below
   is written as a recursive [build] over its (copied) hidden state:
   [copy] duplicates the state and rebuilds the closures around the
   duplicate.  Copies of copies work for free. *)

let rec rename name e =
  { e with name; copy = (fun () -> rename name (e.copy ())) }

(* Each estimator returns the same physical [Some estimate] from
   [current], refreshed in place — a decision per simulation event must
   not allocate.  Callers read the fields immediately (all do); the
   values are valid until the next [observe]/[current] on the same
   estimator. *)
let cache () =
  let est = { mu_hat = 0.0; var_hat = 0.0 } in
  (est, Some est)

let memoryless () =
  (* The latest cross-section, reduced at observe time to the two
     numbers [current] needs, stored unboxed. *)
  let rec build ~mu0 ~var0 ~have0 =
    let est, some_est = cache () in
    est.mu_hat <- mu0;
    est.var_hat <- var0;
    let have = ref have0 in
    {
      name = "memoryless";
      observe =
        (fun obs ->
          if obs.Observation.n >= 1.0 then begin
            est.mu_hat <- Observation.cross_mean obs;
            est.var_hat <- Observation.cross_variance obs;
            have := true
          end);
      current = (fun () -> if !have then some_est else None);
      reset = (fun () -> have := false);
      copy =
        (fun () -> build ~mu0:est.mu_hat ~var0:est.var_hat ~have0:!have);
    }
  in
  build ~mu0:0.0 ~var0:0.0 ~have0:false

let rec with_prior ~mu ~var ~weight e =
  let est, some_est = cache () in
  let current () =
    match e.current () with
    | Some x ->
        est.mu_hat <- (weight *. mu) +. ((1.0 -. weight) *. x.mu_hat);
        est.var_hat <- (weight *. var) +. ((1.0 -. weight) *. x.var_hat);
        some_est
    | None -> None
  in
  { e with
    name = Printf.sprintf "prior(%s,w=%g)" e.name weight;
    current;
    copy = (fun () -> with_prior ~mu ~var ~weight (e.copy ())) }

(* Exact advance of the first-order filter over a piecewise-constant input:
   while the input holds value [x], est(t + dt) = x + (est(t) - x) e^{-dt/Tm}.
   All-float record: the per-event stores stay unboxed. *)
type ewma_state = {
  mutable last_time : float;
  mutable in_mu : float;  (* input signal value held since last_time *)
  mutable in_var : float;
  mutable est_mu : float;
  mutable est_var : float;
}

let ewma ~t_m =
  if t_m < 0.0 then invalid_arg "Estimator.ewma: requires t_m >= 0";
  if t_m = 0.0 then rename "ewma(0)" (memoryless ())
  else begin
    let rec build s initialized0 =
    let initialized = ref initialized0 in
    let est, some_est = cache () in
    let observe obs =
      if obs.Observation.n >= 1.0 then begin
        let x = Observation.cross_mean obs in
        let v = Observation.cross_variance obs in
        if not !initialized then begin
          initialized := true;
          s.est_mu <- x;
          s.est_var <- v
        end
        else begin
          let dt = obs.Observation.now -. s.last_time in
          if dt > 0.0 then begin
            let decay = exp (-.dt /. t_m) in
            s.est_mu <- s.in_mu +. ((s.est_mu -. s.in_mu) *. decay);
            s.est_var <- s.in_var +. ((s.est_var -. s.in_var) *. decay)
          end
        end;
        s.last_time <- obs.Observation.now;
        s.in_mu <- x;
        s.in_var <- v
      end
    in
    let current () =
      if !initialized then begin
        est.mu_hat <- s.est_mu;
        est.var_hat <- Float.max 0.0 s.est_var;
        some_est
      end
      else None
    in
    let reset () = initialized := false in
    let copy () =
      build
        { last_time = s.last_time; in_mu = s.in_mu; in_var = s.in_var;
          est_mu = s.est_mu; est_var = s.est_var }
        !initialized
    in
    { name = Printf.sprintf "ewma(T_m=%g)" t_m; observe; current; reset;
      copy }
    in
    build
      { last_time = 0.0; in_mu = 0.0; in_var = 0.0; est_mu = 0.0;
        est_var = 0.0 }
      false
  end

(* Sliding time window: a ring buffer of constant-signal segments plus
   running integrals; old segments are evicted as the window slides.
   Partial trimming mutates the head segment's start in place, so each
   observe is O(1) amortized (every segment is pushed once, fully
   evicted at most once, and only the head is ever trimmed).  Segments
   are stored as a structure of unboxed float arrays. *)
type window_state = {
  mutable have_input : bool;
  mutable head : int;          (* ring index of the oldest segment *)
  mutable len : int;
  mutable t0s : Float.Array.t; (* rings, capacity = length t0s *)
  mutable t1s : Float.Array.t;
  mutable xs : Float.Array.t;
  mutable vs : Float.Array.t;
  sums : window_sums;
}

and window_sums = {
  mutable last_time : float;
  mutable in_mu : float;
  mutable in_var : float;
  mutable int_mu : float;  (* integral of x over the stored segments *)
  mutable int_var : float;
  mutable covered : float; (* total stored duration *)
}

let window_grow s =
  let cap = Float.Array.length s.t0s in
  let ncap = if cap = 0 then 64 else 2 * cap in
  let copy src =
    let dst = Float.Array.create ncap in
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

let floatarray_dup a =
  let n = Float.Array.length a in
  let b = Float.Array.create n in
  Float.Array.blit a 0 b 0 n;
  b

let window_dup s =
  { have_input = s.have_input; head = s.head; len = s.len;
    t0s = floatarray_dup s.t0s; t1s = floatarray_dup s.t1s;
    xs = floatarray_dup s.xs; vs = floatarray_dup s.vs;
    sums =
      { last_time = s.sums.last_time; in_mu = s.sums.in_mu;
        in_var = s.sums.in_var; int_mu = s.sums.int_mu;
        int_var = s.sums.int_var; covered = s.sums.covered } }

let sliding_window ~t_w =
  if t_w <= 0.0 then invalid_arg "Estimator.sliding_window: requires t_w > 0";
  let rec build s =
  let evict ~now =
    let cutoff = now -. t_w in
    let continue = ref true in
    while !continue && s.len > 0 do
      let cap = Float.Array.length s.t0s in
      let h = s.head in
      let t0 = Float.Array.unsafe_get s.t0s h in
      let t1 = Float.Array.unsafe_get s.t1s h in
      if t1 <= cutoff then begin
        let d = t1 -. t0 in
        s.sums.int_mu <- s.sums.int_mu -. (d *. Float.Array.unsafe_get s.xs h);
        s.sums.int_var <- s.sums.int_var -. (d *. Float.Array.unsafe_get s.vs h);
        s.sums.covered <- s.sums.covered -. d;
        s.head <- (h + 1) mod cap;
        s.len <- s.len - 1
      end
      else if t0 < cutoff then begin
        (* trim the head segment in place to start at the cutoff *)
        let trimmed = cutoff -. t0 in
        s.sums.int_mu <-
          s.sums.int_mu -. (trimmed *. Float.Array.unsafe_get s.xs h);
        s.sums.int_var <-
          s.sums.int_var -. (trimmed *. Float.Array.unsafe_get s.vs h);
        s.sums.covered <- s.sums.covered -. trimmed;
        Float.Array.unsafe_set s.t0s h cutoff;
        continue := false
      end
      else continue := false
    done
  in
  let est, some_est = cache () in
  let observe obs =
    if obs.Observation.n >= 1.0 then begin
      let now = obs.Observation.now in
      if s.have_input && now > s.sums.last_time then begin
        if s.len = Float.Array.length s.t0s then window_grow s;
        let cap = Float.Array.length s.t0s in
        let tail = (s.head + s.len) mod cap in
        Float.Array.unsafe_set s.t0s tail s.sums.last_time;
        Float.Array.unsafe_set s.t1s tail now;
        Float.Array.unsafe_set s.xs tail s.sums.in_mu;
        Float.Array.unsafe_set s.vs tail s.sums.in_var;
        s.len <- s.len + 1;
        let d = now -. s.sums.last_time in
        s.sums.int_mu <- s.sums.int_mu +. (d *. s.sums.in_mu);
        s.sums.int_var <- s.sums.int_var +. (d *. s.sums.in_var);
        s.sums.covered <- s.sums.covered +. d
      end;
      evict ~now;
      s.have_input <- true;
      s.sums.last_time <- now;
      s.sums.in_mu <- Observation.cross_mean obs;
      s.sums.in_var <- Observation.cross_variance obs
    end
  in
  let current () =
    if not s.have_input then None
    else if s.sums.covered <= 0.0 then begin
      est.mu_hat <- s.sums.in_mu;
      est.var_hat <- Float.max 0.0 s.sums.in_var;
      some_est
    end
    else begin
      est.mu_hat <- s.sums.int_mu /. s.sums.covered;
      est.var_hat <- Float.max 0.0 (s.sums.int_var /. s.sums.covered);
      some_est
    end
  in
  let reset () =
    s.have_input <- false;
    s.head <- 0;
    s.len <- 0;
    s.sums.int_mu <- 0.0;
    s.sums.int_var <- 0.0;
    s.sums.covered <- 0.0
  in
  { name = Printf.sprintf "window(T_w=%g)" t_w; observe; current; reset;
    copy = (fun () -> build (window_dup s)) }
  in
  build
    { have_input = false; head = 0; len = 0;
      t0s = Float.Array.create 0; t1s = Float.Array.create 0;
      xs = Float.Array.create 0; vs = Float.Array.create 0;
      sums =
        { last_time = 0.0; in_mu = 0.0; in_var = 0.0;
          int_mu = 0.0; int_var = 0.0; covered = 0.0 } }

(* Aggregate-only estimation (§7): the controller sees the aggregate rate
   and the flow count but not per-flow rates.  The per-flow mean follows
   directly; the per-flow variance is recovered from the *temporal*
   fluctuation of the per-flow average x = S/n, since for n independent
   homogeneous flows Var_time(x) = sigma^2 / n. *)
type aggregate_state = {
  mutable t_last : float;
  mutable in_x : float;
  mutable m1 : float; (* filtered x *)
  mutable m2 : float; (* filtered x^2 *)
  mutable last_n : float;
}

let aggregate_only ~t_m =
  if t_m <= 0.0 then invalid_arg "Estimator.aggregate_only: requires t_m > 0";
  let rec build s init0 =
  let init = ref init0 in
  let est, some_est = cache () in
  let observe obs =
    if obs.Observation.n >= 1.0 then begin
      let x = Observation.cross_mean obs in
      if not !init then begin
        init := true;
        s.m1 <- x;
        s.m2 <- x *. x
      end
      else begin
        let dt = obs.Observation.now -. s.t_last in
        if dt > 0.0 then begin
          let decay = exp (-.dt /. t_m) in
          s.m1 <- s.in_x +. ((s.m1 -. s.in_x) *. decay);
          s.m2 <- (s.in_x *. s.in_x) +. ((s.m2 -. (s.in_x *. s.in_x)) *. decay)
        end
      end;
      s.t_last <- obs.Observation.now;
      s.in_x <- x;
      s.last_n <- obs.Observation.n
    end
  in
  let current () =
    if not !init then None
    else begin
      let var_of_x = Float.max 0.0 (s.m2 -. (s.m1 *. s.m1)) in
      est.mu_hat <- s.m1;
      est.var_hat <- s.last_n *. var_of_x;
      some_est
    end
  in
  let reset () = init := false in
  let copy () =
    build
      { t_last = s.t_last; in_x = s.in_x; m1 = s.m1; m2 = s.m2;
        last_n = s.last_n }
      !init
  in
  { name = Printf.sprintf "aggregate(T_m=%g)" t_m; observe; current; reset;
    copy }
  in
  build { t_last = 0.0; in_x = 0.0; m1 = 0.0; m2 = 0.0; last_n = 0.0 } false
