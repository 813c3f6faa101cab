let () =
  Alcotest.run "mbac"
    (Test_special.suite @ Test_gaussian.suite @ Test_rng.suite
   @ Test_sample.suite @ Test_welford.suite @ Test_descriptive.suite
   @ Test_batch_means.suite @ Test_distributions.suite @ Test_histogram.suite
   @ Test_integrate.suite @ Test_roots.suite @ Test_fft.suite
   @ Test_fgn.suite @ Test_interp.suite @ Test_linalg.suite
   @ Test_sources.suite @ Test_trace.suite @ Test_event_queue.suite
   @ Test_parallel.suite
   @ Test_measurement.suite @ Test_link.suite @ Test_core_basics.suite @ Test_estimator.suite
   @ Test_analysis.suite @ Test_controller.suite @ Test_sim_integration.suite
   @ Test_splitting.suite
   @ Test_impulsive_driver.suite @ Test_experiments.suite
   @ Test_ks_hurst.suite @ Test_extensions.suite
   @ Test_effective_bandwidth.suite @ Test_telemetry.suite
   @ Test_quantile_histogram.suite @ Test_timeseries.suite
   @ Test_serve_protocol.suite @ Test_serve.suite
   @ Test_network.suite @ Test_catalogue.suite)
