(* Windowed maximum via rotating sub-blocks: the window is divided into
   [n_blocks] sub-intervals; we keep the max of each and report the max
   over all blocks (Jamin's measurement window T / sampling window S). *)
module Windowed_max = struct
  type state = {
    block_len : float;
    maxima : float array;
    mutable head : int;          (* index of the current block *)
    mutable block_end : float;   (* end time of the current block *)
    mutable started : bool;
  }

  let create ~window ~n_blocks =
    { block_len = window /. float_of_int n_blocks;
      maxima = Array.make n_blocks neg_infinity;
      head = 0; block_end = 0.0; started = false }

  let add s ~now x =
    if not s.started then begin
      s.started <- true;
      s.block_end <- now +. s.block_len
    end;
    while now >= s.block_end do
      s.head <- (s.head + 1) mod Array.length s.maxima;
      s.maxima.(s.head) <- neg_infinity;
      s.block_end <- s.block_end +. s.block_len
    done;
    if x > s.maxima.(s.head) then s.maxima.(s.head) <- x

  let current s = Array.fold_left Float.max neg_infinity s.maxima

  let copy s = { s with maxima = Array.copy s.maxima }

  let reset s =
    Array.fill s.maxima 0 (Array.length s.maxima) neg_infinity;
    s.head <- 0;
    s.started <- false
end

(* The certainty-equivalent controller's state: the rule, the estimator
   it reads, and the "one out, one in" flag. *)
type rule_state = {
  rule : Criterion.rule;
  capacity : float;
  estimator : Estimator.t;
  back_off : bool;
  mutable blocked : bool;
}

type measured_sum = {
  target_load : float;  (* utilization_target *. capacity *)
  peak : float;
  wm : Windowed_max.state;
}

type kind =
  | Fixed of int
  | Rule of rule_state
  | Measured_sum of measured_sum
  | Custom of (Observation.t -> int)

type t = { name : string; kind : kind }

let name t = t.name

let observe t obs =
  match t.kind with
  | Rule r -> Estimator.observe r.estimator obs
  | Measured_sum s ->
      Windowed_max.add s.wm ~now:obs.Observation.now obs.Observation.sum_rate
  | Fixed _ | Custom _ -> ()

let[@inline] rule_limit r obs =
  let n = Observation.count obs in
  if r.blocked then n
  else begin
    let m =
      match Estimator.current r.estimator with
      | Some e when Criterion.usable e ->
          Criterion.limit r.rule ~capacity:r.capacity e
      | Some _ | None -> Criterion.bootstrap n
    in
    if r.back_off && m <= n then r.blocked <- true;
    m
  end

let measured_sum_limit s obs =
  let n = Observation.count obs in
  let max_load = Windowed_max.current s.wm in
  if max_load = neg_infinity then Criterion.bootstrap n
  else begin
    let headroom = s.target_load -. max_load in
    if headroom < s.peak then n else n + int_of_float (headroom /. s.peak)
  end

(* Every decision is traced the same way: the per-decision trace event
   only renders when tracing is enabled.  m̂/σ̂ are the cross-sectional
   (eqn (23)) estimates — the only measured quantities every controller
   shares.  The decision counters are the link kernel's
   ([Mbac_sim.Link.admissible]), off this per-call path. *)
let admissible t obs =
  let m =
    match t.kind with
    | Fixed m -> m
    | Rule r -> rule_limit r obs
    | Measured_sum s -> measured_sum_limit s obs
    | Custom f -> f obs
  in
  if Mbac_telemetry.Trace.enabled () then begin
    let n = Observation.count obs in
    Mbac_telemetry.Trace.emit ~sampled:true ~t:obs.Observation.now
      ~kind:"decision"
      [ ("controller", Mbac_telemetry.Trace.Str t.name);
        ("n", Mbac_telemetry.Trace.Int n);
        ("admissible", Mbac_telemetry.Trace.Int m);
        ("admit", Mbac_telemetry.Trace.Bool (n < m));
        ("mu_hat", Mbac_telemetry.Trace.Float (Estimator.cross_mean obs));
        ("sigma_hat",
         Mbac_telemetry.Trace.Float (sqrt (Estimator.cross_variance obs))) ]
  end;
  m

let on_depart t (_ : Observation.t) =
  match t.kind with
  | Rule r -> r.blocked <- false
  | Fixed _ | Measured_sum _ | Custom _ -> ()

let reset t =
  match t.kind with
  | Rule r ->
      r.blocked <- false;
      Estimator.reset r.estimator
  | Measured_sum s -> Windowed_max.reset s.wm
  | Fixed _ | Custom _ -> ()

let copy t =
  match t.kind with
  | Rule r ->
      { t with kind = Rule { r with estimator = Estimator.copy r.estimator } }
  | Measured_sum s ->
      { t with kind = Measured_sum { s with wm = Windowed_max.copy s.wm } }
  | Fixed _ | Custom _ -> t

let custom ~name admissible = { name; kind = Custom admissible }

let perfect p = { name = "perfect"; kind = Fixed (Criterion.m_star p) }

let of_rule ?(back_off = false) ~name ~capacity rule estimator =
  { name;
    kind = Rule { rule; capacity; estimator; back_off; blocked = false } }

let certainty_equivalent ~capacity ~p_ce estimator =
  of_rule
    ~name:(Printf.sprintf "ce[%s,p_ce=%.2g]" (Estimator.name estimator) p_ce)
    ~capacity (Criterion.gaussian ~p_ce) estimator

let memoryless ~capacity ~p_ce =
  certainty_equivalent ~capacity ~p_ce (Estimator.memoryless ())

let with_memory ~capacity ~p_ce ~t_m =
  certainty_equivalent ~capacity ~p_ce (Estimator.ewma ~t_m)

let robust p =
  let t_m = Window.recommended_t_m p in
  let alpha_ce = Inversion.adjusted_alpha_ce ~t_m p in
  (* Guard the degenerate deep-repair case where no adjustment is needed:
     alpha_ce = 0 would mean p_ce = 0.5; never run below the QoS target. *)
  let alpha_ce = Float.max alpha_ce (Params.alpha_q p) in
  of_rule
    ~name:(Printf.sprintf "robust[T_m=%.3g,alpha_ce=%.3g]" t_m alpha_ce)
    ~capacity:(Params.capacity p) (Criterion.adjusted ~alpha_ce)
    (Estimator.ewma ~t_m)

let peak_rate ~capacity ~peak =
  { name = "peak-rate";
    kind = Fixed (Criterion.peak_rate_count ~capacity ~peak) }

let measured_sum ~capacity ~utilization_target ~window ~peak =
  if not (utilization_target > 0.0 && utilization_target <= 1.0) then
    invalid_arg "Controller.measured_sum: utilization_target outside (0,1]";
  if window <= 0.0 then invalid_arg "Controller.measured_sum: window <= 0";
  if peak <= 0.0 then invalid_arg "Controller.measured_sum: peak <= 0";
  { name =
      Printf.sprintf "measured-sum[u=%.2f,T=%g]" utilization_target window;
    kind =
      Measured_sum
        { target_load = utilization_target *. capacity; peak;
          wm = Windowed_max.create ~window ~n_blocks:8 } }

let hoeffding ~capacity ~p_ce ~peak estimator =
  of_rule ~name:(Printf.sprintf "hoeffding[p=%.2g]" p_ce) ~capacity
    (Criterion.hoeffding ~p_ce ~peak) estimator

let chernoff ~capacity ~p_ce estimator =
  of_rule ~name:(Printf.sprintf "chernoff[p=%.2g]" p_ce) ~capacity
    (Criterion.chernoff ~p_ce) estimator

let gkk ~capacity ~p_ce ~prior_mu ~prior_var ~prior_weight =
  let rule = Criterion.gaussian ~p_ce in
  if not (prior_weight >= 0.0 && prior_weight <= 1.0) then
    invalid_arg "Controller.gkk: prior_weight outside [0,1]";
  (* "One out, one in": after the criterion rejects (system judged full),
     no further admissions until a departure frees a slot.  This damps
     the admission rate when the system hovers at the boundary. *)
  of_rule ~back_off:true
    ~name:(Printf.sprintf "gkk[w=%.2f]" prior_weight)
    ~capacity rule
    (Estimator.with_prior ~mu:prior_mu ~var:prior_var ~weight:prior_weight
       (Estimator.memoryless ()))
