let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let[@inline] enabled () = Atomic.get enabled_flag

let interval_v = Atomic.make 100.0

let set_interval t =
  if not (Float.is_finite t && t > 0.0) then
    invalid_arg "Timeseries.set_interval: interval must be finite and > 0";
  Atomic.set interval_v t

let interval () = Atomic.get interval_v

let set_label label =
  (Shard.series (Shard.current ())).Shard.label_override <- label

let rebase (s : Shard.series) shard =
  Hashtbl.reset s.Shard.base;
  List.iter
    (fun (name, cell) -> Hashtbl.replace s.Shard.base name (Metric.copy cell))
    (Shard.metrics shard)

let start_run ~label =
  if enabled () then begin
    let shard = Shard.current () in
    let s = Shard.series shard in
    let label =
      if s.Shard.label_override <> "" then s.Shard.label_override else label
    in
    s.Shard.run_label <- label;
    s.Shard.runs <- s.Shard.runs + 1;
    s.Shard.windows <- 0;
    s.Shard.active <- true;
    rebase s shard
  end

(* Delta rendering.  Metrics registered since the last boundary have no
   baseline entry and diff against a zero/empty cell of their kind. *)

let add_sep b first =
  if !first then first := false else Buffer.add_char b ','

let add_key b name =
  Buffer.add_char b '"';
  Json.escape_into b name;
  Buffer.add_string b "\":"

(* Histogram [h]'s increments over [p], its baseline of the same
   layout. *)
let render_hist_delta b ~kind h p =
  Buffer.add_string b "{\"kind\":\"";
  Buffer.add_string b kind;
  Buffer.add_string b "\",\"count\":";
  Buffer.add_string b (Json.int (Histogram.count h - Histogram.count p));
  Buffer.add_string b ",\"sum\":";
  Buffer.add_string b (Json.float (Histogram.sum h -. Histogram.sum p));
  Buffer.add_string b ",\"underflow\":";
  Buffer.add_string b
    (Json.int (Histogram.underflow h - Histogram.underflow p));
  Buffer.add_string b ",\"overflow\":";
  Buffer.add_string b (Json.int (Histogram.overflow h - Histogram.overflow p));
  Buffer.add_string b ",\"buckets\":[";
  let first = ref true in
  let base = Histogram.counts p in
  Array.iteri
    (fun i c ->
      let d = c - base.(i) in
      if d <> 0 then begin
        add_sep b first;
        Buffer.add_char b '[';
        Buffer.add_string b (Json.int i);
        Buffer.add_char b ',';
        Buffer.add_string b (Json.int d);
        Buffer.add_char b ']'
      end)
    (Histogram.counts h);
  Buffer.add_string b "]}"

let emit_window ~t =
  if enabled () then begin
    let shard = Shard.current () in
    let s = Shard.series shard in
    if not s.Shard.active then begin
      (* windows without an explicit run: label by override (or blank) *)
      s.Shard.run_label <- s.Shard.label_override;
      s.Shard.runs <- s.Shard.runs + 1;
      s.Shard.windows <- 0;
      s.Shard.active <- true
      (* no rebase: everything recorded so far belongs to this window *)
    end;
    let metrics = Shard.metrics shard in
    let base name = Hashtbl.find_opt s.Shard.base name in
    let b = s.Shard.buf in
    Buffer.add_string b "{\"t\":";
    Buffer.add_string b (Json.float t);
    Buffer.add_string b ",\"kind\":\"window\",\"label\":\"";
    Json.escape_into b s.Shard.run_label;
    Buffer.add_string b "\",\"run\":";
    Buffer.add_string b (Json.int (s.Shard.runs - 1));
    Buffer.add_string b ",\"window\":";
    Buffer.add_string b (Json.int s.Shard.windows);
    (* counters: non-zero deltas *)
    Buffer.add_string b ",\"counters\":{";
    let first = ref true in
    List.iter
      (fun (name, cell) ->
        match cell with
        | Metric.Counter r ->
            let b0 =
              match base name with Some (Metric.Counter p) -> !p | _ -> 0
            in
            if !r - b0 <> 0 then begin
              add_sep b first;
              add_key b name;
              Buffer.add_string b (Json.int (!r - b0))
            end
        | _ -> ())
      metrics;
    (* sums: non-zero deltas *)
    Buffer.add_string b "},\"sums\":{";
    let first = ref true in
    List.iter
      (fun (name, cell) ->
        match cell with
        | Metric.Sum c ->
            let b0 =
              match base name with Some (Metric.Sum p) -> p.value | _ -> 0.0
            in
            if c.value -. b0 <> 0.0 then begin
              add_sep b first;
              add_key b name;
              Buffer.add_string b (Json.float (c.value -. b0))
            end
        | _ -> ())
      metrics;
    (* gauges: current values, always *)
    Buffer.add_string b "},\"gauges\":{";
    let first = ref true in
    List.iter
      (fun (name, cell) ->
        match cell with
        | Metric.Gauge c ->
            add_sep b first;
            add_key b name;
            Buffer.add_string b (Json.float c.value)
        | _ -> ())
      metrics;
    (* histograms (both layouts): per-window increments, when any *)
    Buffer.add_string b "},\"histograms\":{";
    let first = ref true in
    List.iter
      (fun (name, cell) ->
        match cell with
        | Metric.Hist h ->
            let p =
              match base name with
              | Some (Metric.Hist p) -> p
              | _ -> Histogram.create (Histogram.layout h)
            in
            if Histogram.count h <> Histogram.count p then begin
              add_sep b first;
              add_key b name;
              render_hist_delta b ~kind:(Metric.kind_name cell) h p
            end
        | _ -> ())
      metrics;
    Buffer.add_string b "}}\n";
    s.Shard.windows <- s.Shard.windows + 1;
    rebase s shard
  end

let contents () = Buffer.contents (Shard.series (Shard.current ())).Shard.buf

let dump oc =
  Buffer.output_buffer oc (Shard.series (Shard.current ())).Shard.buf
