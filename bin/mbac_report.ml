(* Offline analyzer for the flight-recorder outputs:
     mbac_report --trace t.jsonl --series s.jsonl [--metrics m.json]
   Turns raw --trace-out / --series-out dumps into per-controller
   summaries: admit-rate trajectory, estimator-drift statistics,
   overflow inter-arrival/duration quantiles, windowed p_f.  Exits
   non-zero on any schema or parse error, so the cram suites can use it
   as a self-check of the recorded formats. *)

open Cmdliner
module J = Mbac_telemetry.Json_parse

exception Schema of string

let schema file line msg = raise (Schema (Printf.sprintf "%s:%d: %s" file line msg))

(* Tiny one-pass mean/std accumulator (Welford); keeps the analyzer
   dependency-free beyond the telemetry library it decodes. *)
type welford = { mutable n : int; mutable mean : float; mutable m2 : float }

let w_create () = { n = 0; mean = 0.0; m2 = 0.0 }

let w_add w x =
  w.n <- w.n + 1;
  let d = x -. w.mean in
  w.mean <- w.mean +. (d /. float_of_int w.n);
  w.m2 <- w.m2 +. (d *. (x -. w.mean))

let w_mean w = if w.n = 0 then nan else w.mean
let w_std w = if w.n < 2 then nan else sqrt (w.m2 /. float_of_int (w.n - 1))

(* Exact empirical quantiles (the analyzer is offline; no buckets). *)
let quantile_fn values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  fun q ->
    if n = 0 then nan
    else
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* [f lineno line] for each line of [file] in turn (numbered from 1),
   read one at a time: an analysis holds its summaries, not the file. *)
let iter_lines file f =
  let ic =
    try open_in file
    with Sys_error msg -> raise (Schema msg)
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno =
        match In_channel.input_line ic with
        | Some line ->
            f lineno line;
            go (lineno + 1)
        | None -> ()
      in
      go 1)

let parse_line file lineno line =
  match J.parse line with
  | Ok v -> v
  | Error msg -> schema file lineno msg

let require file lineno what = function
  | Some v -> v
  | None -> schema file lineno ("missing or mistyped " ^ what)

(* ---------------- trace analysis ---------------- *)

type ctl = {
  mutable decisions : int;
  mutable admits : int;
  mutable est_first_mu : float;   (* nan until seen *)
  mutable est_last_mu : float;
  mu : welford;
  sigma : welford;
  mutable runs : int;
  pf : welford;
  util : welford;
  mutable ovf_count : int;
  mutable inter : float list;
  mutable last_ovf : float;       (* nan: none yet in this segment *)
  mutable durations : float list;
}

let ctl_create () =
  { decisions = 0; admits = 0; est_first_mu = nan; est_last_mu = nan;
    mu = w_create (); sigma = w_create (); runs = 0; pf = w_create ();
    util = w_create (); ovf_count = 0; inter = []; last_ovf = nan;
    durations = [] }

type burst_cell = { mutable bursts : int; mutable m0_sum : int }

let analyze_trace fmt file =
  let kinds : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let ctls : (string, ctl) Hashtbl.t = Hashtbl.create 8 in
  let bursts : (int, burst_cell) Hashtbl.t = Hashtbl.create 8 in
  let current = ref "(none)" in
  let ctl () =
    match Hashtbl.find_opt ctls !current with
    | Some c -> c
    | None ->
        let c = ctl_create () in
        Hashtbl.replace ctls !current c;
        c
  in
  let n_lines = ref 0 in
  iter_lines file (fun lineno line ->
      if String.trim line <> "" then begin
        incr n_lines;
        let v = parse_line file lineno line in
        let t =
          require file lineno {|"t" (number)|}
            (Option.bind (J.member "t" v) J.to_float)
        in
        let kind =
          require file lineno {|"kind" (string)|}
            (Option.bind (J.member "kind" v) J.to_string)
        in
        (match Hashtbl.find_opt kinds kind with
        | Some r -> incr r
        | None -> Hashtbl.replace kinds kind (ref 1));
        let float_field name =
          require file lineno
            (Printf.sprintf "%S (number) in %s" name kind)
            (Option.bind (J.member name v) J.to_float)
        in
        let int_field name =
          require file lineno
            (Printf.sprintf "%S (integer) in %s" name kind)
            (Option.bind (J.member name v) J.to_int)
        in
        let str_field name =
          require file lineno
            (Printf.sprintf "%S (string) in %s" name kind)
            (Option.bind (J.member name v) J.to_string)
        in
        match kind with
        | "run_start" ->
            current := str_field "controller";
            let c = ctl () in
            c.last_ovf <- nan
        | "decision" ->
            let admit =
              require file lineno {|"admit" (bool) in decision|}
                (Option.bind (J.member "admit" v) J.to_bool)
            in
            let c = ctl () in
            c.decisions <- c.decisions + 1;
            if admit then c.admits <- c.admits + 1
        | "estimator" ->
            let mu = float_field "mu_hat" and sg = float_field "sigma_hat" in
            let c = ctl () in
            if Float.is_nan c.est_first_mu then c.est_first_mu <- mu;
            c.est_last_mu <- mu;
            w_add c.mu mu;
            w_add c.sigma sg
        | "overflow_start" ->
            let c = ctl () in
            c.ovf_count <- c.ovf_count + 1;
            if not (Float.is_nan c.last_ovf) then
              c.inter <- (t -. c.last_ovf) :: c.inter;
            c.last_ovf <- t
        | "overflow_end" ->
            let c = ctl () in
            c.durations <- float_field "duration" :: c.durations
        | "run_end" ->
            let controller = str_field "controller" in
            let c =
              (* run_end carries its controller name; trust it even if no
                 run_start was seen (older traces have none). *)
              match Hashtbl.find_opt ctls controller with
              | Some c -> c
              | None ->
                  let c = ctl_create () in
                  Hashtbl.replace ctls controller c;
                  c
            in
            c.runs <- c.runs + 1;
            w_add c.pf (float_field "p_f");
            w_add c.util (float_field "utilization");
            c.last_ovf <- nan;
            current := "(none)"
        | "burst" ->
            let n_offered = int_field "n_offered" in
            let m_0 = int_field "m_0" in
            ignore (float_field "mu_hat");
            let cell =
              match Hashtbl.find_opt bursts n_offered with
              | Some c -> c
              | None ->
                  let c = { bursts = 0; m0_sum = 0 } in
                  Hashtbl.replace bursts n_offered c;
                  c
            in
            cell.bursts <- cell.bursts + 1;
            cell.m0_sum <- cell.m0_sum + m_0
        | _ ->
            (* Unknown kinds are counted but not interpreted: the format
               may grow, and an analyzer should not reject the future. *)
            ()
      end);
  Format.fprintf fmt "== Trace %s: %d events ==@." file !n_lines;
  List.iter
    (fun (kind, count) -> Format.fprintf fmt "  %-16s %8d@." kind !count)
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []));
  let ctl_list =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) ctls [])
  in
  List.iter
    (fun (name, c) ->
      if c.decisions > 0 || c.mu.n > 0 || c.runs > 0 || c.ovf_count > 0 then begin
        Format.fprintf fmt "== Controller %s ==@." name;
        if c.runs > 0 then
          Format.fprintf fmt
            "  runs: %d  p_f: %.4g +- %.2g  utilization: %.4g +- %.2g@."
            c.runs (w_mean c.pf) (w_std c.pf) (w_mean c.util) (w_std c.util);
        if c.decisions > 0 then
          Format.fprintf fmt "  decisions: %d  admit rate: %.4g@." c.decisions
            (float_of_int c.admits /. float_of_int c.decisions);
        if c.mu.n > 0 then
          Format.fprintf fmt
            "  estimator: %d samples  mu_hat %.4g -> %.4g (drift %+.3g)  \
             mean %.4g +- %.2g  sigma_hat mean %.4g@."
            c.mu.n c.est_first_mu c.est_last_mu
            (c.est_last_mu -. c.est_first_mu)
            (w_mean c.mu) (w_std c.mu) (w_mean c.sigma);
        if c.ovf_count > 0 then begin
          Format.fprintf fmt "  overflow episodes: %d@." c.ovf_count;
          (match c.inter with
          | [] -> ()
          | l ->
              let q = quantile_fn l in
              Format.fprintf fmt
                "    inter-arrival: p50 %.4g  p90 %.4g  p99 %.4g@." (q 0.5)
                (q 0.9) (q 0.99));
          match c.durations with
          | [] -> ()
          | l ->
              let q = quantile_fn l in
              Format.fprintf fmt
                "    duration:      p50 %.4g  p90 %.4g  p99 %.4g@." (q 0.5)
                (q 0.9) (q 0.99)
        end
      end)
    ctl_list;
  let burst_list =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) bursts [])
  in
  if burst_list <> [] then begin
    Format.fprintf fmt "== Burst admissions ==@.";
    List.iter
      (fun (n_offered, c) ->
        Format.fprintf fmt
          "  n_offered=%d: bursts %d  mean m_0 %.4g  mean admitted fraction \
           %.4g@."
          n_offered c.bursts
          (float_of_int c.m0_sum /. float_of_int c.bursts)
          (float_of_int c.m0_sum
          /. float_of_int (c.bursts * n_offered)))
      burst_list
  end

(* ---------------- series analysis ---------------- *)

type series_acc = {
  mutable windows : int;
  mutable starts : int;     (* window-0 lines: run starts, robust to the
                               per-shard run index resetting across
                               parallel replications *)
  mutable max_run : int;
  adm : welford;            (* admitted flows per window *)
  wpf : welford;            (* windowed p_f, continuous-load labels only *)
  mutable wpf_max : float;
  mutable last_run : int;
  mutable last_t : float;
}

let analyze_series fmt file =
  let labels : (string, series_acc) Hashtbl.t = Hashtbl.create 8 in
  let n_lines = ref 0 in
  iter_lines file (fun lineno line ->
      if String.trim line <> "" then begin
        incr n_lines;
        let v = parse_line file lineno line in
        let t =
          require file lineno {|"t" (number)|}
            (Option.bind (J.member "t" v) J.to_float)
        in
        let kind =
          require file lineno {|"kind" (string)|}
            (Option.bind (J.member "kind" v) J.to_string)
        in
        if kind <> "window" then
          schema file lineno (Printf.sprintf "unexpected kind %S" kind);
        let label =
          require file lineno {|"label" (string)|}
            (Option.bind (J.member "label" v) J.to_string)
        in
        let run =
          require file lineno {|"run" (integer)|}
            (Option.bind (J.member "run" v) J.to_int)
        in
        let window =
          require file lineno {|"window" (integer)|}
            (Option.bind (J.member "window" v) J.to_int)
        in
        let group name =
          require file lineno (Printf.sprintf "%S (object)" name)
            (Option.bind (J.member name v) J.to_obj)
        in
        let counters = group "counters" in
        let sums = group "sums" in
        let gauges = group "gauges" in
        ignore (group "histograms");
        let acc =
          match Hashtbl.find_opt labels label with
          | Some a -> a
          | None ->
              let a =
                { windows = 0; starts = 0; max_run = 0; adm = w_create ();
                  wpf = w_create (); wpf_max = nan; last_run = -1;
                  last_t = 0.0 }
              in
              Hashtbl.replace labels label a;
              a
        in
        acc.windows <- acc.windows + 1;
        if window = 0 then acc.starts <- acc.starts + 1;
        if run > acc.max_run then acc.max_run <- run;
        let start =
          if window = 0 || run <> acc.last_run then 0.0 else acc.last_t
        in
        acc.last_run <- run;
        acc.last_t <- t;
        let counter name =
          match List.assoc_opt name counters with
          | Some c -> (
              match J.to_int c with
              | Some i -> i
              | None ->
                  schema file lineno
                    (Printf.sprintf "counter %S is not an integer" name))
          | None -> 0
        in
        w_add acc.adm
          (float_of_int
             (counter "sim_flows_admitted_total"
             + counter "impulsive_flows_admitted_total"));
        (* Windowed p_f = overflow time accrued in the window over the
           window length; only continuous-load windows carry the marker
           gauge (overflow time is folded in at episode close, so a long
           episode lands in the window that closes it). *)
        if List.mem_assoc "sim_window_load" gauges && t > start then begin
          let dovf =
            match List.assoc_opt "sim_overflow_time" sums with
            | Some s -> (
                match J.to_float s with
                | Some f -> f
                | None ->
                    schema file lineno "sum \"sim_overflow_time\" not a number")
            | None -> 0.0
          in
          let wpf = dovf /. (t -. start) in
          w_add acc.wpf wpf;
          if Float.is_nan acc.wpf_max || wpf > acc.wpf_max then
            acc.wpf_max <- wpf
        end
      end);
  Format.fprintf fmt "== Series %s: %d windows ==@." file !n_lines;
  List.iter
    (fun (label, a) ->
      Format.fprintf fmt "  %s: runs %d  windows %d  admitted/window %.4g +- %.2g"
        (if label = "" then "(unlabelled)" else label)
        (max (a.max_run + 1) a.starts)
        a.windows (w_mean a.adm) (w_std a.adm);
      if a.wpf.n > 0 then
        Format.fprintf fmt "  windowed p_f mean %.4g max %.4g" (w_mean a.wpf)
          a.wpf_max;
      Format.fprintf fmt "@.")
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) labels []))

(* ---------------- metrics snapshot ---------------- *)

let analyze_metrics fmt file =
  let content =
    try
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg -> raise (Schema msg)
  in
  let v =
    match J.parse content with
    | Ok v -> v
    | Error msg -> raise (Schema (Printf.sprintf "%s: %s" file msg))
  in
  let metrics =
    match J.to_obj v with
    | Some l -> l
    | None -> raise (Schema (Printf.sprintf "%s: top level is not an object" file))
  in
  Format.fprintf fmt "== Metrics %s: %d metrics ==@." file (List.length metrics);
  List.iter
    (fun (name, m) ->
      let kind = Option.bind (J.member "kind" m) J.to_string in
      match kind with
      | Some "quantile_histogram" ->
          let f key =
            match Option.bind (J.member key m) J.to_float with
            | Some x -> x
            | None ->
                raise
                  (Schema
                     (Printf.sprintf "%s: %s missing %S" file name key))
          in
          Format.fprintf fmt
            "  %s: count %.0f  p50 %.4g  p90 %.4g  p99 %.4g  p999 %.4g@." name
            (f "count") (f "p50") (f "p90") (f "p99") (f "p999")
      | Some _ -> ()
      | None ->
          raise (Schema (Printf.sprintf "%s: %s has no kind" file name)))
    metrics

(* ---------------- serve decision log ---------------- *)

(* The serving engine's JSONL decision log: one object per Log_decision
   request, {"seq","criterion","admit","flows"}.  Validates that [seq]
   is dense from 0 (the engine assigns it) and reports per-criterion
   admit rates plus the flows-in-system range. *)

type serve_ctl = {
  mutable sd_decisions : int;
  mutable sd_admits : int;
  sd_flows : welford;
}

let analyze_serve_log fmt file =
  let criteria : (string, serve_ctl) Hashtbl.t = Hashtbl.create 8 in
  let total = ref 0 in
  let min_flows = ref max_int and max_flows = ref min_int in
  iter_lines file (fun lineno line ->
      let v = parse_line file lineno line in
      let field what conv name =
        require file lineno what (Option.bind (J.member name v) conv)
      in
      let seq = field "int seq" J.to_int "seq" in
      let criterion = field "string criterion" J.to_string "criterion" in
      let admit = field "bool admit" J.to_bool "admit" in
      let flows = field "int flows" J.to_int "flows" in
      let expected = lineno - 1 in
      if seq <> expected then
        schema file lineno
          (Printf.sprintf "seq %d out of order (expected %d)" seq expected);
      if flows < 0 then schema file lineno "negative flows";
      let c =
        match Hashtbl.find_opt criteria criterion with
        | Some c -> c
        | None ->
            let c =
              { sd_decisions = 0; sd_admits = 0; sd_flows = w_create () }
            in
            Hashtbl.add criteria criterion c;
            c
      in
      c.sd_decisions <- c.sd_decisions + 1;
      if admit then c.sd_admits <- c.sd_admits + 1;
      w_add c.sd_flows (float_of_int flows);
      min_flows := min !min_flows flows;
      max_flows := max !max_flows flows;
      incr total);
  Format.fprintf fmt "== Serve decision log %s: %d decisions, %d criteria ==@."
    file !total (Hashtbl.length criteria);
  if !total > 0 then
    Format.fprintf fmt "  flows in system: min %d max %d@." !min_flows
      !max_flows;
  List.iter
    (fun (name, c) ->
      Format.fprintf fmt
        "  %s: decisions %d  admits %d  admit rate %.4f  mean flows %.1f@."
        name c.sd_decisions c.sd_admits
        (float_of_int c.sd_admits /. float_of_int c.sd_decisions)
        (w_mean c.sd_flows))
    (List.sort compare
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) criteria []))

let run trace series metrics serve_log =
  if trace = None && series = None && metrics = None && serve_log = None then
    Error
      "nothing to do: pass --trace, --series, --metrics, and/or --serve-log"
  else begin
    let fmt = Format.std_formatter in
    try
      Option.iter (analyze_trace fmt) trace;
      Option.iter (analyze_series fmt) series;
      Option.iter (analyze_metrics fmt) metrics;
      Option.iter (analyze_serve_log fmt) serve_log;
      Ok ()
    with Schema msg -> Error msg
  end

let trace_opt =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"JSONL event trace written by --trace-out.")

let series_opt =
  Arg.(value & opt (some string) None
       & info [ "series" ] ~docv:"FILE"
           ~doc:"JSONL windowed time series written by --series-out.")

let metrics_opt =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"JSON metric snapshot written by --metrics-out.")

let serve_log_opt =
  Arg.(value & opt (some string) None
       & info [ "serve-log" ] ~docv:"FILE"
           ~doc:"JSONL decision log written by mbac_serve/mbac_loadgen \
                 --decision-log.")

let cmd =
  let term =
    Term.(const run $ trace_opt $ series_opt $ metrics_opt $ serve_log_opt)
  in
  Cmd.v
    (Cmd.info "mbac_report"
       ~doc:"Summarize recorded telemetry: per-controller admit rates, \
             estimator drift, overflow quantiles, and windowed overflow \
             probability from --trace-out / --series-out / --metrics-out \
             files, and admission decisions from a serving-engine \
             --decision-log.  Validates the schemas and exits non-zero \
             on any malformed input.")
    Term.(term_result' ~usage:true term)

let () = exit (Cmd.eval cmd)
