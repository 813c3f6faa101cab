type t = {
  name : string;
  observe : Observation.t -> unit;
  admissible : Observation.t -> int;
  on_admit : Observation.t -> unit;
  on_depart : Observation.t -> unit;
  reset : unit -> unit;
  copy : unit -> t;
}

let name t = t.name
let observe t obs = t.observe obs
let admissible t obs = t.admissible obs
let on_admit t obs = t.on_admit obs
let on_depart t obs = t.on_depart obs
let reset t = t.reset ()
let copy t = t.copy ()

let nop (_ : Observation.t) = ()

(* Every scheme is built through [make], so wrapping [admissible] here
   gives uniform decision tracing for all of them: the per-decision
   trace event only renders when tracing is enabled.  m̂/σ̂ are the
   cross-sectional (eqn (23)) estimates — the only measured quantities
   every controller shares.  The decision counters are the link
   kernel's ([Mbac_sim.Link.admissible]), off this per-call path. *)
let instrument ~name admissible obs =
  let m = admissible obs in
  if Mbac_telemetry.Trace.enabled () then begin
    let n = Observation.count obs in
    Mbac_telemetry.Trace.emit ~sampled:true ~t:obs.Observation.now
      ~kind:"decision"
      [ ("controller", Mbac_telemetry.Trace.Str name);
        ("n", Mbac_telemetry.Trace.Int n);
        ("admissible", Mbac_telemetry.Trace.Int m);
        ("admit", Mbac_telemetry.Trace.Bool (n < m));
        ("mu_hat", Mbac_telemetry.Trace.Float (Observation.cross_mean obs));
        ("sigma_hat",
         Mbac_telemetry.Trace.Float (sqrt (Observation.cross_variance obs))) ]
  end;
  m

let make ?(on_admit = nop) ?(on_depart = nop) ?(reset = fun () -> ()) ?copy
    ~name ~observe ~admissible () =
  let copy =
    match copy with
    | Some f -> f
    | None ->
        fun () ->
          invalid_arg
            (Printf.sprintf
               "Controller.copy: controller %S was built without ~copy" name)
  in
  { name; observe; admissible = instrument ~name admissible;
    on_admit; on_depart; reset; copy }

(* Controllers hide their mutable state in closures (estimators, refs),
   so each scheme provides ~copy by re-invoking its own constructor on a
   deep copy of that state — copies of copies then work for free. *)

let rec perfect p =
  let m = Criterion.m_star p in
  make ~name:"perfect" ~observe:nop ~admissible:(fun _ -> m)
    ~copy:(fun () -> perfect p) ()

let of_rule ?(back_off = false) ~name ~capacity rule estimator =
  let rec build ~blocked0 estimator =
    let blocked = ref blocked0 in
    let admissible obs =
      let n = Observation.count obs in
      if !blocked then n
      else begin
        let m =
          match Estimator.current estimator with
          | Some { Estimator.mu_hat; var_hat } when Criterion.usable mu_hat ->
              Criterion.limit rule ~capacity ~mu:mu_hat ~var:var_hat
          | Some _ | None -> Criterion.bootstrap n
        in
        if back_off && m <= n then blocked := true;
        m
      end
    in
    make ~name ~observe:(Estimator.observe estimator) ~admissible
      ~on_depart:(fun _ -> blocked := false)
      ~reset:(fun () ->
        blocked := false;
        Estimator.reset estimator)
      ~copy:(fun () -> build ~blocked0:!blocked (Estimator.copy estimator))
      ()
  in
  build ~blocked0:false estimator

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

let rec peak_rate ~capacity ~peak =
  let m = Criterion.peak_rate_count ~capacity ~peak in
  make ~name:"peak-rate" ~observe:nop ~admissible:(fun _ -> m)
    ~copy:(fun () -> peak_rate ~capacity ~peak) ()

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

  let copy s =
    { block_len = s.block_len; maxima = Array.copy s.maxima; head = s.head;
      block_end = s.block_end; started = s.started }

  let reset s =
    Array.fill s.maxima 0 (Array.length s.maxima) neg_infinity;
    s.head <- 0;
    s.started <- false
end

let measured_sum ~capacity ~utilization_target ~window ~peak =
  if not (utilization_target > 0.0 && utilization_target <= 1.0) then
    invalid_arg "Controller.measured_sum: utilization_target outside (0,1]";
  if window <= 0.0 then invalid_arg "Controller.measured_sum: window <= 0";
  if peak <= 0.0 then invalid_arg "Controller.measured_sum: peak <= 0";
  let rec build wm =
    let observe obs =
      Windowed_max.add wm ~now:obs.Observation.now obs.Observation.sum_rate
    in
    let admissible obs =
      let n = Observation.count obs in
      let max_load = Windowed_max.current wm in
      if max_load = neg_infinity then Criterion.bootstrap n
      else begin
        let headroom = (utilization_target *. capacity) -. max_load in
        if headroom < peak then n else n + int_of_float (headroom /. peak)
      end
    in
    make
      ~name:
        (Printf.sprintf "measured-sum[u=%.2f,T=%g]" utilization_target window)
      ~observe ~admissible
      ~reset:(fun () -> Windowed_max.reset wm)
      ~copy:(fun () -> build (Windowed_max.copy wm))
      ()
  in
  build (Windowed_max.create ~window ~n_blocks:8)

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
