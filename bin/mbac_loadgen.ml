(* Deterministic load generator for the serving engine:
     mbac_loadgen --socket /tmp/mbac.sock --requests 10000 --shutdown
     mbac_loadgen --inproc --requests 10000 --decision-log decisions.jsonl
   The same seed and workload produce the same request stream on either
   transport; --inproc hosts the engine in this process (configured with
   the same --capacity/--criteria/--estimator flags mbac_serve takes). *)

open Cmdliner

let run socket inproc capacity criteria_s estimator measure_every decision_log
    seed requests arrival_mean hold_mean load_mean load_std shutdown tele =
  match
    let criteria = Mbac_serve.Spec.criteria_of_string criteria_s in
    let estimator = Mbac_serve.Spec.estimator_of_string estimator in
    (criteria, estimator)
  with
  | exception Invalid_argument msg -> Error msg
  | criteria, estimator -> (
      match (socket, inproc) with
      | None, false -> Error "pick a transport: --socket PATH or --inproc"
      | Some _, true -> Error "--socket and --inproc are mutually exclusive"
      | transport, _ -> (
          (* a write to a daemon that went away then fails with EPIPE,
             which the client reports as its own Failure *)
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          Mbac_telemetry_cli.Flags.install tele;
          match
            match transport with
            | Some path -> (Mbac_serve.Client.connect_unix ~path (), None)
            | None ->
                let engine =
                  Mbac_serve.Engine.create ?decision_log_file:decision_log
                    { capacity; criteria; estimator; measure_every }
                in
                (Mbac_serve.Client.inproc engine, Some engine)
          with
          | exception (Invalid_argument msg | Failure msg) -> Error msg
          | exception Sys_error msg -> Error ("--decision-log: " ^ msg)
          | client, engine -> (
              let workload =
                { Mbac_serve.Loadgen.seed; requests; arrival_mean; hold_mean;
                  load_mean; load_std; n_criteria = List.length criteria }
              in
              match Mbac_serve.Loadgen.run client workload with
              | exception (Invalid_argument msg | Failure msg) ->
                  Mbac_serve.Client.close client;
                  Error msg
              | summary ->
                  if shutdown then
                    ignore
                      (Mbac_serve.Client.rpc client Mbac_serve.Protocol.Shutdown);
                  Mbac_serve.Client.close client;
                  match
                    match (engine, decision_log) with
                    | Some engine, _ -> Mbac_serve.Engine.close_log engine
                    | None, Some _ ->
                        prerr_endline
                          "mbac_loadgen: note: --decision-log only applies \
                           to --inproc (the daemon owns the log over a \
                           socket)"
                    | None, None -> ()
                  with
                  | exception Sys_error msg -> Error ("--decision-log: " ^ msg)
                  | () ->
                      Mbac_serve.Loadgen.print_summary stdout summary;
                      Mbac_telemetry_cli.Flags.finish tele;
                      Ok ())))

let fopt name default doc =
  Arg.(value & opt float default & info [ name ] ~docv:"X" ~doc)

let cmd =
  let term =
    Term.(
      const run
      $ Arg.(value & opt (some string) None
             & info [ "socket" ] ~docv:"PATH"
                 ~doc:"Connect to a running mbac_serve daemon.")
      $ Arg.(value & flag
             & info [ "inproc" ]
                 ~doc:"Host the engine in this process instead (same \
                       protocol bytes, no kernel).")
      $ fopt "capacity" 100.0 "Link capacity (--inproc engine)."
      $ Arg.(value & opt string "ce:0.01"
             & info [ "criteria" ] ~docv:"SPECS"
                 ~doc:"Criteria list; its length is the number of \
                       criteria Decide requests are spread over, and \
                       --inproc builds the engine from it.")
      $ Arg.(value & opt string "ewma:100"
             & info [ "estimator" ] ~docv:"SPEC"
                 ~doc:"Estimator spec (--inproc engine).")
      $ Arg.(value & opt int 16
             & info [ "measure-every" ] ~docv:"K"
                 ~doc:"Measurement cadence (--inproc engine).")
      $ Arg.(value & opt (some string) None
             & info [ "decision-log" ] ~docv:"FILE"
                 ~doc:"Stream the --inproc engine's JSONL decision log \
                       to FILE, created at start (64 KiB at a time, the \
                       rest at exit).")
      $ Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")
      $ Arg.(value & opt int 1000
             & info [ "requests" ] ~docv:"N"
                 ~doc:"Decide requests to issue.")
      $ fopt "arrival-mean" 1.0 "Mean virtual inter-arrival time."
      $ fopt "hold-mean" 100.0 "Mean virtual flow holding time."
      $ fopt "load-mean" 1.0 "Per-flow offered load, lognormal mean."
      $ fopt "load-std" 0.3 "Per-flow offered load, lognormal std."
      $ Arg.(value & flag
             & info [ "shutdown" ]
                 ~doc:"Send Shutdown when done (stops the daemon).")
      $ Mbac_telemetry_cli.Flags.term)
  in
  Cmd.v
    (Cmd.info "mbac_loadgen"
       ~doc:"Generate a deterministic admission-request workload against \
             a serving engine")
    Term.(term_result' ~usage:true term)

let () = exit (Cmd.eval cmd)
