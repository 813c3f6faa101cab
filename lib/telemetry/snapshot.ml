type value =
  | Counter of int
  | Sum of float
  | Gauge of float
  | Histogram of Histogram.t

(* Sorted by name, as [Shard.metrics] lists the cells. *)
type t = (string * value) list

let value_of_cell = function
  | Metric.Counter r -> Counter !r
  | Metric.Sum c -> Sum c.value
  | Metric.Gauge c -> Gauge c.value
  | Metric.Hist h -> Histogram (Histogram.copy h)

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
      (* a linear layout lists every bucket; a log one reads out its
         quantiles and lists its non-zero buckets *)
      let layout, buckets =
        match Histogram.layout h with
        | Linear { lo; hi; bins } ->
            ( [ ("lo", Json.float lo); ("hi", Json.float hi);
                ("bins", Json.int bins) ],
              [ ("counts",
                 Json.arr
                   (List.map Json.int (Array.to_list (Histogram.counts h))))
              ] )
        | Log { lo; decades; buckets_per_decade } ->
            ( [ ("lo", Json.float lo);
                ("buckets_per_decade", Json.int buckets_per_decade);
                ("decades", Json.int decades) ],
              List.map
                (fun (key, q) -> (key, Json.float (Histogram.quantile h q)))
                [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p999", 0.999) ]
              @ [ ("buckets", sparse_buckets (Histogram.counts h)) ] )
      in
      Json.obj
        ((("kind", Json.string (Metric.kind_name (Metric.Hist h))) :: layout)
        @ [ ("underflow", Json.int (Histogram.underflow h));
            ("overflow", Json.int (Histogram.overflow h)) ]
        @ buckets
        @ [ ("sum", Json.float (Histogram.sum h));
            ("count", Json.int (Histogram.count h)) ])

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
          (match Histogram.layout h with
          | Linear _ ->
              Buffer.add_string b
                (Printf.sprintf "# TYPE %s histogram\n" name);
              let counts = Histogram.counts h in
              let cumulative = ref (Histogram.underflow h) in
              Array.iteri
                (fun i c ->
                  cumulative := !cumulative + c;
                  Buffer.add_string b
                    (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name
                       (prom_float (Histogram.bucket_lower h (i + 1)))
                       !cumulative))
                counts;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name
                   (!cumulative + Histogram.overflow h))
          | Log _ ->
              (* Rendered as a Prometheus summary: pre-computed quantiles
                 rather than 480 mostly-empty le-buckets. *)
              Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" name);
              List.iter
                (fun (label, q) ->
                  Buffer.add_string b
                    (Printf.sprintf "%s{quantile=\"%s\"} %s\n" name label
                       (prom_float (Histogram.quantile h q))))
                [ ("0.5", 0.5); ("0.9", 0.9); ("0.99", 0.99);
                  ("0.999", 0.999) ]);
          Buffer.add_string b
            (Printf.sprintf "%s_sum %s\n" name (prom_float (Histogram.sum h)));
          Buffer.add_string b
            (Printf.sprintf "%s_count %d\n" name (Histogram.count h));
          out_of_range ~underflow:(Histogram.underflow h)
            ~overflow:(Histogram.overflow h))
    t;
  Buffer.contents b

let write_string path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc s)

let write_files t ~path =
  write_string path (to_json t);
  write_string (path ^ ".prom") (to_prometheus t)
