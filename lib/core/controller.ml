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

let check_p_ce p_ce =
  if not (p_ce > 0.0 && p_ce <= 0.5) then
    invalid_arg "Controller: requires 0 < p_ce <= 0.5"

(* Controllers hide their mutable state in closures (estimators, refs),
   so each scheme provides ~copy by re-invoking its own constructor on a
   deep copy of that state — copies of copies then work for free. *)

let rec perfect p =
  let m = Criterion.m_star p in
  make ~name:"perfect" ~observe:nop ~admissible:(fun _ -> m)
    ~copy:(fun () -> perfect p) ()

let rec certainty_equivalent ~capacity ~p_ce estimator =
  check_p_ce p_ce;
  let alpha = Mbac_stats.Gaussian.q_inv p_ce in
  let admissible obs =
    match Estimator.current estimator with
    | Some { Estimator.mu_hat; var_hat } when mu_hat > 0.0 ->
        Criterion.admissible ~capacity ~mu:mu_hat ~sigma:(sqrt var_hat) ~alpha
    | Some _ | None ->
        (* Cautious bootstrap: admit one flow at a time until the
           estimator produces a usable estimate. *)
        Observation.count obs + 1
  in
  make
    ~name:(Printf.sprintf "ce[%s,p_ce=%.2g]" (Estimator.name estimator) p_ce)
    ~observe:(Estimator.observe estimator)
    ~admissible
    ~reset:(fun () -> Estimator.reset estimator)
    ~copy:(fun () ->
      certainty_equivalent ~capacity ~p_ce (Estimator.copy estimator))
    ()

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
  let capacity = Params.capacity p in
  let rec build estimator =
    let admissible obs =
      match Estimator.current estimator with
      | Some { Estimator.mu_hat; var_hat } when mu_hat > 0.0 ->
          Criterion.admissible ~capacity ~mu:mu_hat ~sigma:(sqrt var_hat)
            ~alpha:alpha_ce
      | Some _ | None -> Observation.count obs + 1
    in
    make
      ~name:(Printf.sprintf "robust[T_m=%.3g,alpha_ce=%.3g]" t_m alpha_ce)
      ~observe:(Estimator.observe estimator)
      ~admissible
      ~reset:(fun () -> Estimator.reset estimator)
      ~copy:(fun () -> build (Estimator.copy estimator))
      ()
  in
  build (Estimator.ewma ~t_m)

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
      let max_load = Windowed_max.current wm in
      if max_load = neg_infinity then Observation.count obs + 1
      else begin
        let headroom = (utilization_target *. capacity) -. max_load in
        if headroom < peak then Observation.count obs
        else Observation.count obs + int_of_float (headroom /. peak)
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

let rec hoeffding ~capacity ~p_ce ~peak estimator =
  check_p_ce p_ce;
  if peak <= 0.0 then invalid_arg "Controller.hoeffding: peak <= 0";
  (* M mu + b sqrt M <= c with b = peak sqrt(ln(1/p)/2): same quadratic as
     the Gaussian criterion with (sigma alpha) |-> b. *)
  let bound = peak *. sqrt (log (1.0 /. p_ce) /. 2.0) in
  let admissible obs =
    match Estimator.current estimator with
    | Some { Estimator.mu_hat; _ } when mu_hat > 0.0 ->
        Criterion.admissible ~capacity ~mu:mu_hat ~sigma:bound ~alpha:1.0
    | Some _ | None -> Observation.count obs + 1
  in
  make
    ~name:(Printf.sprintf "hoeffding[p=%.2g]" p_ce)
    ~observe:(Estimator.observe estimator)
    ~admissible
    ~reset:(fun () -> Estimator.reset estimator)
    ~copy:(fun () -> hoeffding ~capacity ~p_ce ~peak (Estimator.copy estimator))
    ()

let rec chernoff ~capacity ~p_ce estimator =
  check_p_ce p_ce;
  let alpha = Effective_bandwidth.gaussian_alpha_of_p p_ce in
  let admissible obs =
    match Estimator.current estimator with
    | Some { Estimator.mu_hat; var_hat } when mu_hat > 0.0 ->
        Criterion.admissible ~capacity ~mu:mu_hat ~sigma:(sqrt var_hat) ~alpha
    | Some _ | None -> Observation.count obs + 1
  in
  make
    ~name:(Printf.sprintf "chernoff[p=%.2g]" p_ce)
    ~observe:(Estimator.observe estimator)
    ~admissible
    ~reset:(fun () -> Estimator.reset estimator)
    ~copy:(fun () -> chernoff ~capacity ~p_ce (Estimator.copy estimator))
    ()

let gkk ~capacity ~p_ce ~prior_mu ~prior_var ~prior_weight =
  check_p_ce p_ce;
  if not (prior_weight >= 0.0 && prior_weight <= 1.0) then
    invalid_arg "Controller.gkk: prior_weight outside [0,1]";
  let alpha = Mbac_stats.Gaussian.q_inv p_ce in
  (* "One out, one in": after the criterion rejects (system judged full),
     no further admissions until a departure frees a slot.  This damps
     the admission rate when the system hovers at the boundary. *)
  let rec build ~blocked0 estimator =
    let blocked = ref blocked0 in
    let admissible obs =
      if !blocked then Observation.count obs
      else begin
        let m =
          match Estimator.current estimator with
          | Some { Estimator.mu_hat; var_hat } ->
              let mu =
                (prior_weight *. prior_mu) +. ((1.0 -. prior_weight) *. mu_hat)
              in
              let var =
                (prior_weight *. prior_var)
                +. ((1.0 -. prior_weight) *. var_hat)
              in
              if mu <= 0.0 then Observation.count obs + 1
              else Criterion.admissible ~capacity ~mu ~sigma:(sqrt var) ~alpha
          | None -> Observation.count obs + 1
        in
        if m <= Observation.count obs then blocked := true;
        m
      end
    in
    make
      ~name:(Printf.sprintf "gkk[w=%.2f]" prior_weight)
      ~observe:(Estimator.observe estimator)
      ~admissible
      ~on_depart:(fun _ -> blocked := false)
      ~reset:(fun () ->
        blocked := false;
        Estimator.reset estimator)
      ~copy:(fun () -> build ~blocked0:!blocked (Estimator.copy estimator))
      ()
  in
  build ~blocked0:false (Estimator.memoryless ())
