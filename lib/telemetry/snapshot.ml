type value =
  | Counter of int
  | Sum of float
  | Gauge of float
  | Histogram of Metric.Histogram.t
  | Qhistogram of Quantile_histogram.t

(* Sorted by name, as [Shard.metrics] lists the cells. *)
type t = (string * value) list

let value_of_cell = function
  | Metric.Counter r -> Counter !r
  | Metric.Sum r -> Sum !r
  | Metric.Gauge r -> Gauge !r
  | Metric.Hist h -> Histogram (Metric.Histogram.copy h)
  | Metric.Qhist h -> Qhistogram (Quantile_histogram.copy h)

let current () =
  List.map
    (fun (name, cell) -> (name, value_of_cell cell))
    (Shard.metrics (Shard.current ()))

let find t name = List.assoc_opt name t
let bindings t = t

(* Sparse rendering for the 480-bucket default geometry: only the
   non-zero buckets, as [index, count] pairs. *)
let sparse_buckets counts =
  let pairs = ref [] in
  for i = Array.length counts - 1 downto 0 do
    if counts.(i) <> 0 then
      pairs := Json.arr [ Json.int i; Json.int counts.(i) ] :: !pairs
  done;
  Json.arr !pairs

let json_of_value = function
  | Counter c -> Json.obj [ ("kind", Json.string "counter"); ("value", Json.int c) ]
  | Sum s -> Json.obj [ ("kind", Json.string "sum"); ("value", Json.float s) ]
  | Gauge g -> Json.obj [ ("kind", Json.string "gauge"); ("value", Json.float g) ]
  | Histogram h ->
      let module H = Metric.Histogram in
      Json.obj
        [ ("kind", Json.string "histogram");
          ("lo", Json.float (H.lo h));
          ("hi", Json.float (H.hi h));
          ("bins", Json.int (H.bins h));
          ("underflow", Json.int (H.underflow h));
          ("overflow", Json.int (H.overflow h));
          ("counts", Json.arr (List.map Json.int (Array.to_list (H.counts h))));
          ("sum", Json.float (H.sum h));
          ("count", Json.int (H.count h)) ]
  | Qhistogram h ->
      let module Q = Quantile_histogram in
      Json.obj
        [ ("kind", Json.string "quantile_histogram");
          ("lo", Json.float (Q.lo h));
          ("buckets_per_decade", Json.int (Q.buckets_per_decade h));
          ("decades", Json.int (Q.decades h));
          ("underflow", Json.int (Q.underflow h));
          ("overflow", Json.int (Q.overflow h));
          ("p50", Json.float (Q.quantile h 0.5));
          ("p90", Json.float (Q.quantile h 0.9));
          ("p99", Json.float (Q.quantile h 0.99));
          ("p999", Json.float (Q.quantile h 0.999));
          ("buckets", sparse_buckets (Q.counts h));
          ("sum", Json.float (Q.sum h));
          ("count", Json.int (Q.count h)) ]

let to_json t =
  Json.obj (List.map (fun (name, v) -> (name, json_of_value v)) t) ^ "\n"

(* Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; ours are
   already snake_case, but sanitize defensively. *)
let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_float x =
  if Float.is_nan x then "NaN"
  else if x = Float.infinity then "+Inf"
  else if x = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.12g" x

let to_prometheus t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let name = prom_name name in
      let out_of_range ~underflow ~overflow =
        (* Cumulative buckets fold underflow in and cap overflow at +Inf,
           so out-of-range observations are invisible there; expose them
           as explicit companion counters. *)
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s_underflow_total counter\n" name);
        Buffer.add_string b
          (Printf.sprintf "%s_underflow_total %d\n" name underflow);
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s_overflow_total counter\n" name);
        Buffer.add_string b
          (Printf.sprintf "%s_overflow_total %d\n" name overflow)
      in
      match v with
      | Counter c ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" name);
          Buffer.add_string b (Printf.sprintf "%s %d\n" name c)
      | Sum s ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" name);
          Buffer.add_string b (Printf.sprintf "%s %s\n" name (prom_float s))
      | Gauge g ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" name);
          Buffer.add_string b (Printf.sprintf "%s %s\n" name (prom_float g))
      | Histogram h ->
          let module H = Metric.Histogram in
          Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" name);
          let counts = H.counts h in
          let bins = Array.length counts in
          let width = (H.hi h -. H.lo h) /. float_of_int bins in
          let cumulative = ref (H.underflow h) in
          for i = 0 to bins - 1 do
            cumulative := !cumulative + counts.(i);
            let le = H.lo h +. (float_of_int (i + 1) *. width) in
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (prom_float le)
                 !cumulative)
          done;
          cumulative := !cumulative + H.overflow h;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name !cumulative);
          Buffer.add_string b
            (Printf.sprintf "%s_sum %s\n" name (prom_float (H.sum h)));
          Buffer.add_string b (Printf.sprintf "%s_count %d\n" name (H.count h));
          out_of_range ~underflow:(H.underflow h) ~overflow:(H.overflow h)
      | Qhistogram h ->
          let module Q = Quantile_histogram in
          (* Rendered as a Prometheus summary: pre-computed quantiles
             rather than 480 mostly-empty le-buckets. *)
          Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" name);
          List.iter
            (fun (label, q) ->
              Buffer.add_string b
                (Printf.sprintf "%s{quantile=\"%s\"} %s\n" name label
                   (prom_float (Q.quantile h q))))
            [ ("0.5", 0.5); ("0.9", 0.9); ("0.99", 0.99); ("0.999", 0.999) ];
          Buffer.add_string b
            (Printf.sprintf "%s_sum %s\n" name (prom_float (Q.sum h)));
          Buffer.add_string b (Printf.sprintf "%s_count %d\n" name (Q.count h));
          out_of_range ~underflow:(Q.underflow h) ~overflow:(Q.overflow h))
    t;
  Buffer.contents b

let write_string path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc s)

let write_files t ~path =
  write_string path (to_json t);
  write_string (path ^ ".prom") (to_prometheus t)
