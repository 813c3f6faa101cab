(* Per span: its durations (in nanoseconds) in a histogram of the
   default log layout, whose count and sum give the mean and whose
   quantiles give p50/p90/p99, plus the exact extremes. *)
type acc = {
  hist : Histogram.t;
  mutable min_ns : float;
  mutable max_ns : float;
}

let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b

let table : (string, acc) Hashtbl.t = Hashtbl.create 32
let lock = Mutex.create ()

let record name ns =
  let ns = Int64.to_float ns in
  Mutex.protect lock (fun () ->
      let a =
        match Hashtbl.find_opt table name with
        | Some a -> a
        | None ->
            let a =
              { hist = Histogram.create Histogram.default_log; min_ns = ns;
                max_ns = ns }
            in
            Hashtbl.replace table name a;
            a
      in
      Histogram.observe a.hist ns;
      a.min_ns <- Float.min a.min_ns ns;
      a.max_ns <- Float.max a.max_ns ns)

let span name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let t0 = Monotonic_clock.now () in
    let finally () = record name (Int64.sub (Monotonic_clock.now ()) t0) in
    Fun.protect ~finally f
  end

(* [f] over every span, under the lock, sorted by span name. *)
let fold f =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun name a acc -> (name, f a) :: acc) table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let ms ns = ns /. 1e6
let total_ms a = ms (Histogram.sum a.hist)
let mean_ms a = total_ms a /. float_of_int (Histogram.count a.hist)
let q_ms a q = ms (Histogram.quantile a.hist q)

let report fmt =
  match fold Fun.id with
  | [] -> Format.fprintf fmt "profile: no spans recorded@."
  | l ->
      Format.fprintf fmt
        "profile: %-40s %10s %12s %12s %12s %12s %12s %12s@." "span" "count"
        "total ms" "mean ms" "p50 ms" "p99 ms" "min ms" "max ms";
      List.iter
        (fun (name, a) ->
          Format.fprintf fmt
            "profile: %-40s %10d %12.3f %12.3f %12.3f %12.3f %12.3f %12.3f@."
            name (Histogram.count a.hist) (total_ms a) (mean_ms a) (q_ms a 0.5)
            (q_ms a 0.99) (ms a.min_ns) (ms a.max_ns))
        l

let to_json () =
  let spans =
    fold (fun a ->
        Json.obj
          [ ("count", Json.int (Histogram.count a.hist));
            ("total_ms", Json.float (total_ms a));
            ("mean_ms", Json.float (mean_ms a));
            ("p50_ms", Json.float (q_ms a 0.5));
            ("p90_ms", Json.float (q_ms a 0.9));
            ("p99_ms", Json.float (q_ms a 0.99));
            ("min_ms", Json.float (ms a.min_ns));
            ("max_ms", Json.float (ms a.max_ns)) ])
  in
  Json.obj spans ^ "\n"
