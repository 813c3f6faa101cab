type criterion_spec =
  | Gaussian of { cname : string; p_ce : float }
  | Hoeffding of { cname : string; p_ce : float; peak : float }

type config = {
  capacity : float;
  criteria : criterion_spec list;
  estimator : Mbac.Estimator.t;
  measure_every : int;
}

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
let[@inline] fp_of_load x = int_of_float (Float.round (x *. fp_scale_f))
let[@inline] fp_to_float i = float_of_int i /. fp_scale_f

(* The squared-load accumulator stores round(l^2 * fp_scale) for the
   *rounded* load l, so the measurement cross-section's sum of squares is
   consistent with its sum to within the same quantization. *)
let[@inline] fp_sq fp =
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
  obs : Mbac.Observation.t;  (* the cross-section a pass shows [estimator] *)
  fields : Protocol.Fields.t;  (* the request frame being answered *)
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
    obs = Mbac.Observation.make ~now:0.0 ~n:0 ~sum_rate:0.0 ~sum_sq:0.0;
    fields = Protocol.Fields.create ();
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

(* ---------- measurement ---------- *)

(* One pass over the counters, stamped with the time already in
   [t.obs.now].  The cross-section is written into the engine's one
   observation, and nothing here passes a float to another module, so a
   pass allocates nothing in any build. *)
let measure t =
  let n = t.flows and o = t.obs in
  o.n <- float_of_int n;
  o.sum_rate <- fp_to_float t.load_fp;
  o.sum_sq <- fp_to_float t.sumsq_fp;
  if n > 0 then Mbac.Estimator.observe t.estimator o;
  (match Mbac.Estimator.current t.estimator with
  | Some e when Mbac.Criterion.usable e ->
      for i = 0 to Array.length t.crits - 1 do
        t.m.(i) <-
          Mbac.Criterion.limit t.crits.(i).cr_rule ~capacity:t.capacity e
      done;
      t.estimated <- true
  | Some _ | None -> t.estimated <- false);
  t.updates <- t.updates + 1;
  H.inc m_updates;
  H.set_gauge_fixed m_flows n ~scale:1;
  H.set_gauge_fixed m_load t.load_fp ~scale:fp_scale

let[@inline] run_measurement t ~now =
  t.obs.now <- now;
  measure t

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

(* Every function of the steady path below that takes a float is
   [@inline], so that [reply] keeps its floats unboxed. *)

let[@inline] admissible t ~criterion =
  if t.estimated then Array.unsafe_get t.m criterion
  else Mbac.Criterion.bootstrap t.flows

let[@inline] decide t ~criterion ~load =
  let admit =
    t.flows < admissible t ~criterion
    && t.load_fp + fp_of_load load <= t.capacity_fp
  in
  t.decisions <- t.decisions + 1;
  if admit then t.admits <- t.admits + 1;
  H.inc m_decisions;
  H.inc (if admit then m_admit else m_reject);
  admit

let[@inline] maybe_measure t ~now =
  if t.measure_every > 0 then begin
    t.accounting <- t.accounting + 1;
    if t.accounting mod t.measure_every = 0 then run_measurement t ~now
  end

(* Both sums are checked before either changes, so a refused flow
   leaves no trace. *)
let[@inline] add t ~load ~now =
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

let[@inline] subtract t ~load ~now =
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

(* ---------- stats ---------- *)

let stats t =
  { flows = t.flows;
    admitted_load = fp_to_float t.load_fp;
    capacity = t.capacity;
    requests = t.requests;
    decisions = t.decisions;
    admits = t.admits;
    updates = t.updates }

(* ---------- requests: one implementation per kind ---------- *)

(* The upper bound keeps one flow's fixed-point square (load² · fp_scale,
   at most ~1.05e18) inside the 63-bit integer range.  It does not bound
   the sums: four flows at the cap fit, a fifth would pass max_int, and
   [add] refuses it. *)
let[@inline] valid_load load =
  Float.is_finite load && load >= 0.0 && load <= 1e6

let criterion_out_of_range out =
  Protocol.write_error out ~code:2 "criterion out of range"

let load_out_of_range out = Protocol.write_error out ~code:3 "load out of range"

let initialize_reply t ~capacity out =
  if not (Float.is_finite capacity && capacity > 0.0) then
    Protocol.write_error out ~code:1 "capacity must be finite and positive"
  else begin
    initialize t ~capacity;
    Protocol.write_ok out
  end

let[@inline] decide_reply t ~criterion ~load out =
  if criterion >= Array.length t.crits then criterion_out_of_range out
  else if not (valid_load load) then load_out_of_range out
  else begin
    let admit = decide t ~criterion ~load in
    Protocol.write_decision out ~admit ~admissible:(admissible t ~criterion)
      ~flows:t.flows
  end

let[@inline] add_reply t ~load ~now out =
  if not (valid_load load) then load_out_of_range out
  else if add t ~load ~now then Protocol.write_ok out
  else
    Protocol.write_error out ~code:3 "load overflows the admitted-load sums"

let[@inline] subtract_reply t ~load ~now out =
  if not (valid_load load) then load_out_of_range out
  else if subtract t ~load ~now then Protocol.write_ok out
  else
    Protocol.write_error out ~code:3
      "departure of a flow that was not admitted"

let log_decision_reply t ~criterion ~admit out =
  if criterion >= Array.length t.crits then criterion_out_of_range out
  else
    match log_decision t ~criterion ~admit with
    | () -> Protocol.write_ok out
    | exception Sys_error msg ->
        Protocol.write_error out ~code:4 ("decision log: " ^ msg)

let stats_reply t out =
  Protocol.write_stats out ~flows:t.flows
    ~admitted_load:(fp_to_float t.load_fp) ~capacity:t.capacity
    ~requests:t.requests ~decisions:t.decisions ~admits:t.admits
    ~updates:t.updates

let fields t = t.fields

let reply t out =
  let f = t.fields in
  let s = f.scalars in
  t.requests <- t.requests + 1;
  H.inc m_requests;
  match f.kind with
  | Initialize -> initialize_reply t ~capacity:s.capacity out
  | Decide -> decide_reply t ~criterion:f.criterion ~load:s.load out
  | Add -> add_reply t ~load:s.load ~now:s.now out
  | Subtract -> subtract_reply t ~load:s.load ~now:s.now out
  | Log_decision ->
      log_decision_reply t ~criterion:f.criterion ~admit:f.admit out
  | Stats -> stats_reply t out
  | Shutdown -> Protocol.write_ok out

(* The value-level form, for tests and tools: the request goes through
   its wire bytes and [reply], like a frame off a socket. *)
let handle t req =
  let frame = Buffer.create 32 in
  Protocol.encode_request frame req;
  (match
     Protocol.read_request (Buffer.to_bytes frame) ~pos:0
       ~avail:(Buffer.length frame) t.fields
   with
  | Frame -> ()
  | Partial | Malformed -> invalid_arg "Engine.handle: unencodable request");
  let out = Buffer.create 32 in
  reply t out;
  match
    Protocol.decode_response (Buffer.to_bytes out) ~pos:0
      ~avail:(Buffer.length out)
  with
  | Ok (resp, _) -> resp
  | Error e -> failwith (Protocol.error_to_string e)
