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

(* ---------- the published estimate record ---------- *)

(* Immutable: swapped whole through one Atomic.  [p_m] empty = bootstrap
   (no usable estimate yet).  Capacity lives here too, so [initialize]
   retargets the fast path with the same single publication step. *)
type published = {
  p_capacity : float;
  p_capacity_fp : int;
  p_m : int array;
  p_updates : int;
}

type background = {
  bg_stop : bool Atomic.t;
  bg_domain : Mbac_telemetry.Shard.t Domain.t;
}

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
  (* fast-path state *)
  flows : int Atomic.t;
  load_fp : int Atomic.t;
  sumsq_fp : int Atomic.t;
  published : published Atomic.t;
  (* counters surfaced through Stats *)
  requests : int Atomic.t;
  decisions : int Atomic.t;
  admits : int Atomic.t;
  accounting : int Atomic.t;  (* add/subtract calls, drives measure_every *)
  log_seq : int Atomic.t;
  (* measurement-path state (everything below the mutex) *)
  meas_mutex : Mutex.t;
  log_mutex : Mutex.t;
  log : log_sink option;
  mutable bg : background option;
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

let bootstrap ~capacity ~updates =
  { p_capacity = capacity; p_capacity_fp = fp_of_load capacity; p_m = [||];
    p_updates = updates }

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
    flows = Atomic.make 0;
    load_fp = Atomic.make 0;
    sumsq_fp = Atomic.make 0;
    published = Atomic.make (bootstrap ~capacity:config.capacity ~updates:0);
    requests = Atomic.make 0;
    decisions = Atomic.make 0;
    admits = Atomic.make 0;
    accounting = Atomic.make 0;
    log_seq = Atomic.make 0;
    meas_mutex = Mutex.create ();
    log_mutex = Mutex.create ();
    log = open_log ?decision_log ?decision_log_file crits;
    bg = None }

let criterion_names t = Array.map (fun c -> c.cr_name) t.crits

(* ---------- measurement path ---------- *)

let run_measurement t ~now =
  Mutex.protect t.meas_mutex (fun () ->
      (* The three counters are read independently, so a concurrent
         accounting call can skew one cross-section by one flow.  That is
         measurement noise of the same order the estimators already
         smooth; correctness (counters, decisions) is unaffected. *)
      let n = Atomic.get t.flows in
      let sum_fp = Atomic.get t.load_fp in
      let sumsq_fp = Atomic.get t.sumsq_fp in
      if n > 0 && sum_fp >= 0 && sumsq_fp >= 0 then
        Mbac.Estimator.observe t.estimator
          (Mbac.Observation.make ~now ~n ~sum_rate:(fp_to_float sum_fp)
             ~sum_sq:(fp_to_float sumsq_fp));
      let prev = Atomic.get t.published in
      let next =
        match Mbac.Estimator.snapshot_estimate t.estimator with
        | Some { Mbac.Estimator.mu; var } when Mbac.Criterion.usable mu ->
            let m =
              Array.map
                (fun c ->
                  Mbac.Criterion.limit c.cr_rule ~capacity:prev.p_capacity ~mu
                    ~var)
                t.crits
            in
            { prev with p_m = m; p_updates = prev.p_updates + 1 }
        | Some _ | None ->
            { prev with p_m = [||]; p_updates = prev.p_updates + 1 }
      in
      Atomic.set t.published next;
      H.inc m_updates;
      H.set_gauge m_flows (float_of_int n);
      H.set_gauge m_load (fp_to_float sum_fp))

let initialize t ~capacity =
  check_capacity capacity;
  Mutex.protect t.meas_mutex (fun () ->
      Atomic.set t.flows 0;
      Atomic.set t.load_fp 0;
      Atomic.set t.sumsq_fp 0;
      Mbac.Estimator.reset t.estimator;
      let prev = Atomic.get t.published in
      Atomic.set t.published
        (bootstrap ~capacity ~updates:(prev.p_updates + 1));
      H.inc m_updates;
      H.set_gauge m_flows 0.0;
      H.set_gauge m_load 0.0)

(* ---------- fast path ---------- *)

let decide t ~criterion ~load =
  let pub = Atomic.get t.published in
  let n = Atomic.get t.flows in
  let m =
    if Array.length pub.p_m = 0 then Mbac.Criterion.bootstrap n
    else Array.unsafe_get pub.p_m criterion
  in
  let headroom =
    Atomic.get t.load_fp + fp_of_load load <= pub.p_capacity_fp
  in
  let admit = n < m && headroom in
  Atomic.incr t.decisions;
  if admit then Atomic.incr t.admits;
  H.inc m_decisions;
  H.inc (if admit then m_admit else m_reject);
  { admit; admissible = m; flows = n }

let maybe_measure t ~now =
  if t.measure_every > 0 then begin
    let k = Atomic.fetch_and_add t.accounting 1 in
    if (k + 1) mod t.measure_every = 0 then run_measurement t ~now
  end

(* [counter + d] for [d >= 0], refused (false, counter unchanged) when
   the sum would pass [max_int]: a compare-and-set loop, so a wrapped
   sum is never published, not even for a moment. *)
let rec add_within counter d =
  let cur = Atomic.get counter in
  if cur > max_int - d then false
  else Atomic.compare_and_set counter cur (cur + d) || add_within counter d

let add t ~load ~now =
  let fp = fp_of_load load in
  let sq = fp_sq fp in
  if not (add_within t.load_fp fp) then false
  else if not (add_within t.sumsq_fp sq) then begin
    ignore (Atomic.fetch_and_add t.load_fp (-fp));
    false
  end
  else begin
    ignore (Atomic.fetch_and_add t.flows 1);
    maybe_measure t ~now;
    true
  end

(* [counter - d] for [d >= 0], refused (false, counter unchanged) when
   it would go below zero. *)
let rec sub_within counter d =
  let cur = Atomic.get counter in
  if cur < d then false
  else Atomic.compare_and_set counter cur (cur - d) || sub_within counter d

let subtract t ~load ~now =
  let fp = fp_of_load load in
  let sq = fp_sq fp in
  if not (sub_within t.flows 1) then false
  else if not (sub_within t.load_fp fp) then begin
    Atomic.incr t.flows;
    false
  end
  else if not (sub_within t.sumsq_fp sq) then begin
    Atomic.incr t.flows;
    ignore (Atomic.fetch_and_add t.load_fp fp);
    false
  end
  else begin
    maybe_measure t ~now;
    true
  end

(* ---------- decision log ---------- *)

(* Hands the staged lines to the kernel; the caller holds [log_mutex]. *)
let write_out sink =
  match sink.file with
  | Some oc when Buffer.length sink.lines > 0 ->
      Buffer.output_buffer oc sink.lines;
      flush oc;
      Buffer.clear sink.lines
  | Some _ | None -> ()

(* This runs once per Log_decision request, so the mutex is taken by
   hand: [Mutex.protect] would allocate a closure per line. *)
let log_decision t ~criterion ~admit =
  let seq = Atomic.fetch_and_add t.log_seq 1 in
  match t.log with
  | None -> ()
  | Some sink -> (
      let criterion = t.crits.(criterion).cr_log in
      let flows = Atomic.get t.flows in
      Mutex.lock t.log_mutex;
      match
        if Buffer.length sink.lines > sink.room then write_out sink;
        Log_line.add sink.lines ~seq criterion ~admit ~flows
      with
      | () -> Mutex.unlock t.log_mutex
      | exception e ->
          Mutex.unlock t.log_mutex;
          raise e)

let close_log t =
  match t.log with
  | Some ({ file = Some oc; _ } as sink) ->
      Mutex.protect t.log_mutex (fun () ->
          match write_out sink; close_out oc with
          | () -> ()
          | exception (Sys_error _ as e) ->
              close_out_noerr oc;
              raise e)
  | Some { file = None; _ } | None -> ()

(* ---------- stats / dispatch ---------- *)

let stats t =
  let pub = Atomic.get t.published in
  { flows = Atomic.get t.flows;
    admitted_load = fp_to_float (Atomic.get t.load_fp);
    capacity = pub.p_capacity;
    requests = Atomic.get t.requests;
    decisions = Atomic.get t.decisions;
    admits = Atomic.get t.admits;
    updates = pub.p_updates }

(* The upper bound keeps one flow's fixed-point square (load² · fp_scale,
   at most ~1.05e18) inside the 63-bit integer range.  It does not bound
   the sums: four flows at the cap fit, a fifth would pass max_int, and
   [add] refuses it. *)
let valid_load load = Float.is_finite load && load >= 0.0 && load <= 1e6

let handle t (req : Protocol.request) : Protocol.response =
  Atomic.incr t.requests;
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

(* ---------- background measurement ---------- *)

let wall_now () = Unix.gettimeofday ()

let start_background t ~interval =
  if t.bg <> None then invalid_arg "Engine: measurement domain already running";
  if not (interval > 0.0) then invalid_arg "Engine: interval must be > 0";
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        (* Record into this domain's own shard and hand it back at join;
           stop_background folds it into the caller's shard, so the
           update counter survives into the final snapshot. *)
        let shard = Mbac_telemetry.Shard.current () in
        while not (Atomic.get stop) do
          Unix.sleepf interval;
          if not (Atomic.get stop) then run_measurement t ~now:(wall_now ())
        done;
        shard)
  in
  t.bg <- Some { bg_stop = stop; bg_domain = d }

let stop_background t =
  match t.bg with
  | None -> ()
  | Some { bg_stop; bg_domain } ->
      Atomic.set bg_stop true;
      let shard = Domain.join bg_domain in
      t.bg <- None;
      Mbac_telemetry.Shard.merge_into_current shard
