type criterion_spec =
  | Gaussian of { cname : string; p_ce : float }
  | Hoeffding of { cname : string; p_ce : float; peak : float }

type config = {
  capacity : float;
  criteria : criterion_spec list;
  estimator : Mbac.Estimator.t;
  measure_every : int;
}

type decision = { admit : bool; admissible : int; flows : int }

type stats = {
  flows : int;
  admitted_load : float;
  capacity : float;
  requests : int;
  decisions : int;
  admits : int;
  updates : int;
}

(* ---------- fixed-point load encoding ---------- *)

(* 2^20 units per load unit, like sledge's ADMISSIONS_CONTROL_GRANULARITY
   but binary so the quantization is exact in both directions for loads
   that are multiples of 2^-20.  Per-flow loads are rounded once, at the
   boundary; sums of rounded values stay exact integers, so an engine
   whose every admitted flow departs again returns to exactly zero. *)
let fp_scale = 1 lsl 20
let fp_scale_f = float_of_int fp_scale
let fp_of_load x = int_of_float (Float.round (x *. fp_scale_f))
let fp_to_float i = float_of_int i /. fp_scale_f

(* The squared-load accumulator stores round(l^2 * fp_scale) for the
   *rounded* load l, so the measurement cross-section's sum of squares is
   consistent with its sum to within the same quantization. *)
let fp_sq fp =
  let l = fp_to_float fp in
  int_of_float (Float.round (l *. l *. fp_scale_f))

(* ---------- decision-log lines ---------- *)

(* A line is rendered straight into the sink's buffer: the escaped
   criterion fragment is built once per criterion, and the two integers
   are written digit by digit, so a line allocates nothing. *)
module Log_line = struct
  type criterion = string

  let criterion name = ",\"criterion\":" ^ Mbac_telemetry.Json.string name

  (* Digits of [n <= 0], most significant first.  Working on the
     non-positive side covers [min_int], whose negation overflows. *)
  let rec add_digits buf n =
    if n <= -10 then add_digits buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

  let add_int buf n =
    if n < 0 then begin
      Buffer.add_char buf '-';
      add_digits buf n
    end
    else add_digits buf (-n)

  let add buf ~seq criterion ~admit ~flows =
    Buffer.add_string buf "{\"seq\":";
    add_int buf seq;
    Buffer.add_string buf criterion;
    Buffer.add_string buf
      (if admit then ",\"admit\":true,\"flows\":"
       else ",\"admit\":false,\"flows\":");
    add_int buf flows;
    Buffer.add_string buf "}\n"

  (* The longest line [add] writes for [criterion]: the fixed text plus
     two integers of at most 20 characters ("-" and 19 digits). *)
  let max_bytes criterion =
    let fixed = String.length "{\"seq\":,\"admit\":false,\"flows\":}\n" in
    fixed + String.length criterion + (2 * 20)
end

(* ---------- compiled criteria ---------- *)

type crit = {
  cr_name : string;
  cr_log : Log_line.criterion;
  cr_rule : Mbac.Criterion.rule;
}

let compile_criterion spec =
  let cr_name, cr_rule =
    match spec with
    | Gaussian { cname; p_ce } -> (cname, Mbac.Criterion.gaussian ~p_ce)
    | Hoeffding { cname; p_ce; peak } ->
        (cname, Mbac.Criterion.hoeffding ~p_ce ~peak)
  in
  { cr_name; cr_log = Log_line.criterion cr_name; cr_rule }

(* The decision log's sink.  In memory, [lines] is the caller's buffer
   and keeps every line.  With a file, [lines] is a staging buffer of
   [log_staging_bytes]; it is written to [file] before a line that might
   not fit, so it never grows and holds at most one staging buffer of
   lines. *)
type log_sink = {
  lines : Buffer.t;
  file : out_channel option;
  room : int;  (* write [lines] out once it holds more bytes than this *)
}

type t = {
  crits : crit array;
  estimator : Mbac.Estimator.t;
  measure_every : int;
  (* the admitted flows, their loads in fixed point *)
  mutable flows : int;
  mutable load_fp : int;
  mutable sumsq_fp : int;
  (* what [decide] reads besides the flows: the capacity ([initialize]
     sets it) and each criterion's admissible count M, refreshed in place
     by every measurement pass *)
  mutable capacity : float;
  mutable capacity_fp : int;
  m : int array;
  mutable estimated : bool;  (* false: no usable estimate, bootstrap M *)
  mutable updates : int;  (* measurement passes and initializations *)
  (* counters surfaced through Stats *)
  mutable requests : int;
  mutable decisions : int;
  mutable admits : int;
  mutable accounting : int;  (* add/subtract calls, drives measure_every *)
  mutable log_seq : int;
  log : log_sink option;
}

(* ---------- telemetry ---------- *)

module H = Mbac_telemetry.Metrics.Handle

let m_requests = H.counter "serve_requests_total"
let m_decisions = H.counter "serve_decisions_total"
let m_admit = H.counter "serve_admit_total"
let m_reject = H.counter "serve_reject_total"
let m_updates = H.counter "serve_measurement_updates_total"
let m_flows = H.gauge "serve_flows"
let m_load = H.gauge "serve_admitted_load"

(* ---------- construction ---------- *)

let check_capacity capacity =
  if not (Float.is_finite capacity && capacity > 0.0) then
    invalid_arg "Engine: capacity must be finite and positive"

let log_staging_bytes = 65536

let open_log ?decision_log ?decision_log_file crits =
  match (decision_log, decision_log_file) with
  | None, None -> None
  | Some lines, None -> Some { lines; file = None; room = max_int }
  | None, Some path ->
      let longest =
        Array.fold_left (fun m c -> max m (Log_line.max_bytes c.cr_log)) 0 crits
      in
      Some
        { lines = Buffer.create log_staging_bytes;
          file = Some (open_out_bin path);
          room = max 0 (log_staging_bytes - longest) }
  | Some _, Some _ ->
      invalid_arg "Engine: decision_log and decision_log_file are exclusive"

let create ?decision_log ?decision_log_file (config : config) =
  check_capacity config.capacity;
  if config.criteria = [] then invalid_arg "Engine: criteria must be nonempty";
  if List.length config.criteria > 0xFFFF then
    invalid_arg "Engine: at most 65535 criteria (u16 on the wire)";
  if config.measure_every < 0 then
    invalid_arg "Engine: measure_every must be >= 0";
  let crits = Array.of_list (List.map compile_criterion config.criteria) in
  { crits;
    estimator = config.estimator;
    measure_every = config.measure_every;
    flows = 0;
    load_fp = 0;
    sumsq_fp = 0;
    capacity = config.capacity;
    capacity_fp = fp_of_load config.capacity;
    m = Array.make (Array.length crits) 0;
    estimated = false;
    updates = 0;
    requests = 0;
    decisions = 0;
    admits = 0;
    accounting = 0;
    log_seq = 0;
    log = open_log ?decision_log ?decision_log_file crits }

let criterion_names t = Array.map (fun c -> c.cr_name) t.crits

(* ---------- measurement ---------- *)

let run_measurement t ~now =
  let n = t.flows in
  if n > 0 then
    Mbac.Estimator.observe t.estimator
      (Mbac.Observation.make ~now ~n ~sum_rate:(fp_to_float t.load_fp)
         ~sum_sq:(fp_to_float t.sumsq_fp));
  (match Mbac.Estimator.current t.estimator with
  | Some e when Mbac.Criterion.usable e.Mbac.Estimator.mu_hat ->
      for i = 0 to Array.length t.crits - 1 do
        t.m.(i) <-
          Mbac.Criterion.limit t.crits.(i).cr_rule ~capacity:t.capacity
            ~mu:e.Mbac.Estimator.mu_hat ~var:e.Mbac.Estimator.var_hat
      done;
      t.estimated <- true
  | Some _ | None -> t.estimated <- false);
  t.updates <- t.updates + 1;
  H.inc m_updates;
  H.set_gauge m_flows (float_of_int n);
  H.set_gauge m_load (fp_to_float t.load_fp)

let initialize t ~capacity =
  check_capacity capacity;
  t.flows <- 0;
  t.load_fp <- 0;
  t.sumsq_fp <- 0;
  Mbac.Estimator.reset t.estimator;
  t.capacity <- capacity;
  t.capacity_fp <- fp_of_load capacity;
  t.estimated <- false;
  t.updates <- t.updates + 1;
  H.inc m_updates;
  H.set_gauge m_flows 0.0;
  H.set_gauge m_load 0.0

(* ---------- decisions and accounting ---------- *)

let decide t ~criterion ~load =
  let n = t.flows in
  let m =
    if t.estimated then Array.unsafe_get t.m criterion
    else Mbac.Criterion.bootstrap n
  in
  let admit = n < m && t.load_fp + fp_of_load load <= t.capacity_fp in
  t.decisions <- t.decisions + 1;
  if admit then t.admits <- t.admits + 1;
  H.inc m_decisions;
  H.inc (if admit then m_admit else m_reject);
  { admit; admissible = m; flows = n }

let maybe_measure t ~now =
  if t.measure_every > 0 then begin
    t.accounting <- t.accounting + 1;
    if t.accounting mod t.measure_every = 0 then run_measurement t ~now
  end

(* Both sums are checked before either changes, so a refused flow
   leaves no trace. *)
let add t ~load ~now =
  let fp = fp_of_load load in
  let sq = fp_sq fp in
  if t.load_fp > max_int - fp || t.sumsq_fp > max_int - sq then false
  else begin
    t.load_fp <- t.load_fp + fp;
    t.sumsq_fp <- t.sumsq_fp + sq;
    t.flows <- t.flows + 1;
    maybe_measure t ~now;
    true
  end

let subtract t ~load ~now =
  let fp = fp_of_load load in
  let sq = fp_sq fp in
  if t.flows < 1 || t.load_fp < fp || t.sumsq_fp < sq then false
  else begin
    t.flows <- t.flows - 1;
    t.load_fp <- t.load_fp - fp;
    t.sumsq_fp <- t.sumsq_fp - sq;
    maybe_measure t ~now;
    true
  end

(* ---------- decision log ---------- *)

(* Hands the staged lines to the kernel. *)
let write_out sink =
  match sink.file with
  | Some oc when Buffer.length sink.lines > 0 ->
      Buffer.output_buffer oc sink.lines;
      flush oc;
      Buffer.clear sink.lines
  | Some _ | None -> ()

let log_decision t ~criterion ~admit =
  let seq = t.log_seq in
  t.log_seq <- seq + 1;
  match t.log with
  | None -> ()
  | Some sink ->
      if Buffer.length sink.lines > sink.room then write_out sink;
      Log_line.add sink.lines ~seq t.crits.(criterion).cr_log ~admit
        ~flows:t.flows

let close_log t =
  match t.log with
  | Some ({ file = Some oc; _ } as sink) -> (
      match write_out sink; close_out oc with
      | () -> ()
      | exception (Sys_error _ as e) ->
          close_out_noerr oc;
          raise e)
  | Some { file = None; _ } | None -> ()

(* ---------- stats / dispatch ---------- *)

let stats t =
  { flows = t.flows;
    admitted_load = fp_to_float t.load_fp;
    capacity = t.capacity;
    requests = t.requests;
    decisions = t.decisions;
    admits = t.admits;
    updates = t.updates }

(* The upper bound keeps one flow's fixed-point square (load² · fp_scale,
   at most ~1.05e18) inside the 63-bit integer range.  It does not bound
   the sums: four flows at the cap fit, a fifth would pass max_int, and
   [add] refuses it. *)
let valid_load load = Float.is_finite load && load >= 0.0 && load <= 1e6

let handle t (req : Protocol.request) : Protocol.response =
  t.requests <- t.requests + 1;
  H.inc m_requests;
  match req with
  | Protocol.Initialize { capacity } ->
      if not (Float.is_finite capacity && capacity > 0.0) then
        Protocol.Error_reply
          { code = 1; message = "capacity must be finite and positive" }
      else begin
        initialize t ~capacity;
        Protocol.Ok_reply
      end
  | Protocol.Decide { criterion; load; now = _ } ->
      if criterion >= Array.length t.crits then
        Protocol.Error_reply { code = 2; message = "criterion out of range" }
      else if not (valid_load load) then
        Protocol.Error_reply { code = 3; message = "load out of range" }
      else begin
        let d = decide t ~criterion ~load in
        Protocol.Decision
          { admit = d.admit; admissible = d.admissible; flows = d.flows }
      end
  | Protocol.Add { load; now } ->
      if not (valid_load load) then
        Protocol.Error_reply { code = 3; message = "load out of range" }
      else if add t ~load ~now then Protocol.Ok_reply
      else
        Protocol.Error_reply
          { code = 3; message = "load overflows the admitted-load sums" }
  | Protocol.Subtract { load; now } ->
      if not (valid_load load) then
        Protocol.Error_reply { code = 3; message = "load out of range" }
      else if subtract t ~load ~now then Protocol.Ok_reply
      else
        Protocol.Error_reply
          { code = 3; message = "departure of a flow that was not admitted" }
  | Protocol.Log_decision { criterion; admit } -> (
      if criterion >= Array.length t.crits then
        Protocol.Error_reply { code = 2; message = "criterion out of range" }
      else
        match log_decision t ~criterion ~admit with
        | () -> Protocol.Ok_reply
        | exception Sys_error msg ->
            Protocol.Error_reply { code = 4; message = "decision log: " ^ msg })
  | Protocol.Stats ->
      let s = stats t in
      Protocol.Stats_reply
        { flows = s.flows; admitted_load = s.admitted_load;
          capacity = s.capacity; requests = s.requests;
          decisions = s.decisions; admits = s.admits; updates = s.updates }
  | Protocol.Shutdown -> Protocol.Ok_reply
