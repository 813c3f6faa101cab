type admission = { m_0 : int; mu_hat : float; sigma_hat : float }

(* Metric names resolved once at module initialisation; updates in the
   replication loops below are plain array stores. *)
let m_bursts = Mbac_telemetry.Metrics.Handle.counter "impulsive_bursts_total"

let m_admitted =
  Mbac_telemetry.Metrics.Handle.counter "impulsive_flows_admitted_total"

let m_rejected =
  Mbac_telemetry.Metrics.Handle.counter "impulsive_flows_rejected_total"

let m_m0_fraction =
  Mbac_telemetry.Metrics.Handle.histogram "impulsive_m0_fraction" ~lo:0.0
    ~hi:1.05 ~bins:21

let m_overflow_samples =
  Mbac_telemetry.Metrics.Handle.counter "impulsive_overflow_samples_total"

let m_overflow_hits =
  Mbac_telemetry.Metrics.Handle.counter "impulsive_overflow_hits_total"

let admit_burst rng ~n_offered ~capacity ~alpha_ce ~make_source =
  if n_offered < 2 then invalid_arg "Impulsive_driver: requires n_offered >= 2";
  let sources = Array.init n_offered (fun _ -> make_source rng ~start:0.0) in
  let rates = Array.map Mbac_traffic.Source.rate sources in
  (* eqn (7) over the first [m] offered flows *)
  let estimate m =
    let sum = ref 0.0 and sq = ref 0.0 in
    for i = 0 to m - 1 do
      sum := !sum +. rates.(i);
      sq := !sq +. (rates.(i) *. rates.(i))
    done;
    let mf = float_of_int m in
    let mu_hat = !sum /. mf in
    let var_hat =
      Float.max 0.0 ((!sq -. (mf *. mu_hat *. mu_hat)) /. (mf -. 1.0))
    in
    { Mbac.Estimator.mu_hat; var_hat }
  in
  let rule = Mbac.Criterion.adjusted ~alpha_ce in
  (* The paper's model (§3.1, footnote 2) bases the estimate on the ~M_0
     flows being admitted, not on the whole offered burst.  Iterate the
     criterion to its fixed point: estimate over m flows, recompute the
     admissible count, repeat until stable. *)
  let rec fixpoint m k =
    let e = estimate m in
    let m' =
      if not (Mbac.Criterion.usable e) then n_offered
      else min n_offered (max 2 (Mbac.Criterion.limit rule ~capacity e))
    in
    if m' = m || k >= 20 then (m', e) else fixpoint m' (k + 1)
  in
  let m_0, { Mbac.Estimator.mu_hat; var_hat } = fixpoint n_offered 0 in
  let sigma_hat = sqrt var_hat in
  Mbac_telemetry.Metrics.Handle.inc m_bursts;
  Mbac_telemetry.Metrics.Handle.inc ~by:m_0 m_admitted;
  Mbac_telemetry.Metrics.Handle.inc ~by:(n_offered - m_0) m_rejected;
  (* Fixed shape across all burst sizes: the admitted fraction M_0/N. *)
  Mbac_telemetry.Metrics.Handle.observe m_m0_fraction
    (float_of_int m_0 /. float_of_int n_offered);
  if Mbac_telemetry.Trace.enabled () then
    Mbac_telemetry.Trace.emit ~sampled:true ~t:0.0 ~kind:"burst"
      [ ("n_offered", Mbac_telemetry.Trace.Int n_offered);
        ("m_0", Mbac_telemetry.Trace.Int m_0);
        ("mu_hat", Mbac_telemetry.Trace.Float mu_hat);
        ("sigma_hat", Mbac_telemetry.Trace.Float sigma_hat) ];
  ({ m_0; mu_hat; sigma_hat }, Array.sub sources 0 m_0)

(* The impulsive model has no clock; its virtual time for the windowed
   series ([--series-out]) is the burst index, so --series-interval T
   means "one window per T bursts". *)
let series_stride () =
  max 1 (int_of_float (Mbac_telemetry.Timeseries.interval ()))

let series_start ~variant ~n_offered =
  if Mbac_telemetry.Timeseries.enabled () then
    Mbac_telemetry.Timeseries.start_run
      ~label:(Printf.sprintf "impulsive-%s[n=%d]" variant n_offered)

let[@inline] series_tick ~stride rep =
  if rep mod stride = 0 then
    Mbac_telemetry.Timeseries.emit_window ~t:(float_of_int rep)

let series_finish ~stride ~replications =
  if Mbac_telemetry.Timeseries.enabled () && replications mod stride <> 0 then
    Mbac_telemetry.Timeseries.emit_window ~t:(float_of_int replications)

let m0_samples rng ~replications ~n_offered ~capacity ~alpha_ce ~make_source =
  series_start ~variant:"m0" ~n_offered;
  let stride = series_stride () in
  let samples =
    Array.init replications (fun i ->
        let adm, _ =
          admit_burst rng ~n_offered ~capacity ~alpha_ce ~make_source
        in
        series_tick ~stride (i + 1);
        float_of_int adm.m_0)
  in
  series_finish ~stride ~replications;
  samples

(* Advance every source to time [t] by firing pending changes, batched
   per source.  Sources share one RNG stream, so the array-index order
   (and, within a source, the epoch order [fire_until] preserves) is
   part of the deterministic-output contract. *)
let advance_to sources t =
  Array.iter (fun s -> Mbac_traffic.Source.fire_until s ~upto:t) sources

let total_rate sources =
  Array.fold_left (fun acc s -> acc +. Mbac_traffic.Source.rate s) 0.0 sources

let steady_state_overflow rng ~replications ~n_offered ~capacity ~alpha_ce
    ~decorrelate_time ~samples_per_replication ~sample_spacing ~make_source =
  let per_rep = Mbac_stats.Welford.create () in
  series_start ~variant:"steady" ~n_offered;
  let stride = series_stride () in
  for rep = 1 to replications do
    let _, admitted =
      admit_burst rng ~n_offered ~capacity ~alpha_ce ~make_source
    in
    let hits = ref 0 in
    for k = 0 to samples_per_replication - 1 do
      let t = decorrelate_time +. (float_of_int k *. sample_spacing) in
      advance_to admitted t;
      if total_rate admitted > capacity then incr hits
    done;
    Mbac_stats.Welford.add per_rep
      (float_of_int !hits /. float_of_int samples_per_replication);
    Mbac_telemetry.Metrics.Handle.inc m_overflow_samples
      ~by:samples_per_replication;
    Mbac_telemetry.Metrics.Handle.inc m_overflow_hits ~by:!hits;
    series_tick ~stride rep
  done;
  series_finish ~stride ~replications;
  let se =
    Mbac_stats.Welford.std per_rep /. sqrt (float_of_int replications)
  in
  (Mbac_stats.Welford.mean per_rep, se)

let overflow_vs_time rng ~replications ~n_offered ~capacity ~alpha_ce
    ~holding_time_mean ~times ~make_source =
  let times = Array.copy times in
  Array.sort compare times;
  let hits = Array.make (Array.length times) 0 in
  series_start ~variant:"transient" ~n_offered;
  let stride = series_stride () in
  for rep = 1 to replications do
    let _, admitted =
      admit_burst rng ~n_offered ~capacity ~alpha_ce ~make_source
    in
    (* independent exponential departure times *)
    let departures =
      Array.map
        (fun _ -> Mbac_stats.Sample.exponential rng ~mean:holding_time_mean)
        admitted
    in
    Array.iteri
      (fun ti t ->
        advance_to admitted t;
        let load = ref 0.0 in
        Array.iteri
          (fun i s ->
            if departures.(i) > t then
              load := !load +. Mbac_traffic.Source.rate s)
          admitted;
        if !load > capacity then hits.(ti) <- hits.(ti) + 1)
      times;
    series_tick ~stride rep
  done;
  series_finish ~stride ~replications;
  Array.map (fun h -> float_of_int h /. float_of_int replications) hits
