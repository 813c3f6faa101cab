(* Online admission-decision daemon:
     mbac_serve --socket /tmp/mbac.sock --capacity 120 \
       --criteria ce:0.01,hoeffding:0.01:2.0 --estimator ewma:100
   Serves the binary protocol until a client sends Shutdown. *)

open Cmdliner

let run socket capacity criteria estimator measure_every measure_interval
    decision_log tele =
  match
    let criteria = Mbac_serve.Spec.criteria_of_string criteria in
    let estimator = Mbac_serve.Spec.estimator_of_string estimator in
    (criteria, estimator)
  with
  | exception Invalid_argument msg -> Error msg
  | criteria, estimator -> (
      if measure_every < 0 then Error "--measure-every must be >= 0"
      else if
        match measure_interval with Some t -> not (t > 0.0) | None -> false
      then Error "--measure-interval must be > 0"
      else if measure_interval <> None && measure_every > 0 then
        (* one estimator, one clock: timer passes are stamped with
           wall-clock time, inline passes with the clients' virtual time *)
        Error
          "--measure-interval (wall-clock passes) cannot be combined with \
           --measure-every K > 0 (passes in the clients' virtual time); \
           give --measure-every 0"
      else begin
        Mbac_telemetry_cli.Flags.install tele;
        (* bind first: a socket the daemon cannot serve on leaves no
           decision log behind *)
        match Mbac_serve.Server.listen ~path:socket with
        | exception Failure msg -> Error ("--socket: " ^ msg)
        | listener -> (
            match
              Mbac_serve.Engine.create ?decision_log_file:decision_log
                { capacity; criteria; estimator; measure_every }
            with
            | exception Invalid_argument msg ->
                Mbac_serve.Server.close listener;
                Error msg
            | exception Sys_error msg ->
                Mbac_serve.Server.close listener;
                Error ("--decision-log: " ^ msg)
            | engine -> (
                Logs.info (fun m -> m "serving on %s" socket);
                (* an accept error the server does not retry ends serving:
                   the log and the telemetry are still written, and the
                   error is one line and a non-zero exit *)
                let failed =
                  match
                    Mbac_serve.Server.serve ?measure_interval listener engine
                  with
                  | () -> None
                  | exception Unix.Unix_error (e, fn, _) ->
                      Some (Printf.sprintf "%s: %s" fn (Unix.error_message e))
                in
                match Mbac_serve.Engine.close_log engine with
                | exception Sys_error msg -> Error ("--decision-log: " ^ msg)
                | () -> (
                    Mbac_telemetry_cli.Flags.finish tele;
                    match failed with
                    | None -> Ok Cmd.Exit.ok
                    | Some msg ->
                        prerr_endline ("mbac_serve: " ^ msg);
                        Ok Cmd.Exit.some_error)))
      end)

let cmd =
  let term =
    Term.(
      const run
      $ Arg.(required
             & opt (some string) None
             & info [ "socket" ] ~docv:"PATH"
                 ~doc:"Unix socket path to serve on (a stale socket is \
                       replaced; a live daemon's socket and any other \
                       file are refused; removed on exit).")
      $ Arg.(value & opt float 100.0
             & info [ "capacity" ] ~docv:"C" ~doc:"Link capacity.")
      $ Arg.(value & opt string "ce:0.01"
             & info [ "criteria" ] ~docv:"SPECS"
                 ~doc:"Comma-separated admission criteria: ce:<p_ce> \
                       (certainty-equivalent Gaussian) or \
                       hoeffding:<p_ce>:<peak>.  Decide requests index \
                       into this list.")
      $ Arg.(value & opt string "ewma:100"
             & info [ "estimator" ] ~docv:"SPEC"
                 ~doc:"memoryless | ewma:<t_m> | window:<t_w> | \
                       aggregate:<t_m>.")
      $ Arg.(value & opt int 16
             & info [ "measure-every" ] ~docv:"K"
                 ~doc:"Run a measurement pass after every K-th \
                       add/subtract (deterministic; 0 disables).")
      $ Arg.(value & opt (some float) None
             & info [ "measure-interval" ] ~docv:"T"
                 ~doc:"Run a measurement pass every T wall-clock seconds, \
                       stamped with wall-clock time.  Requires \
                       --measure-every 0: the inline passes are stamped \
                       with the clients' virtual time.")
      $ Arg.(value & opt (some string) None
             & info [ "decision-log" ] ~docv:"FILE"
                 ~doc:"Stream the JSONL decision log (one line per \
                       Log_decision request) to FILE, created at start. \
                       Lines reach the file 64 KiB at a time and at \
                       shutdown; a killed daemon loses at most the last \
                       64 KiB.")
      $ Mbac_telemetry_cli.Flags.term)
  in
  Cmd.v
    (Cmd.info "mbac_serve"
       ~doc:"Serve online admission decisions over a Unix-socket binary \
             protocol")
    Term.(term_result' ~usage:true term)

let () = exit (Cmd.eval' cmd)
