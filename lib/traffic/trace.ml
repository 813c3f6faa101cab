type t = { dt : float; rates : float array; mean : float; variance : float }

(* The statistics are computed once here: every flow played from the
   trace reads them (Trace_source), and a trace has ~10^5 samples. *)
let of_rates ~dt rates =
  let mean = Mbac_stats.Descriptive.mean rates in
  let acc = ref 0.0 in
  for i = 0 to Array.length rates - 1 do
    let d = rates.(i) -. mean in
    acc := !acc +. (d *. d)
  done;
  { dt; rates; mean; variance = !acc /. float_of_int (Array.length rates) }

let create ~dt rates =
  if dt <= 0.0 then invalid_arg "Trace.create: requires dt > 0";
  if Array.length rates = 0 then invalid_arg "Trace.create: empty trace";
  Array.iter
    (fun r -> if r < 0.0 then invalid_arg "Trace.create: negative rate")
    rates;
  of_rates ~dt (Array.copy rates)

let duration t = t.dt *. float_of_int (Array.length t.rates)
let length t = Array.length t.rates
let mean t = t.mean
let variance t = t.variance

let rate_at t time =
  let n = Array.length t.rates in
  let i = int_of_float (floor (time /. t.dt)) in
  let i = ((i mod n) + n) mod n in
  t.rates.(i)

let autocorrelation t ~max_lag =
  Mbac_numerics.Fft.autocorrelation_fft t.rates ~max_lag

let scale_to_mean t ~mean:target =
  let m = t.mean in
  if m <= 0.0 then invalid_arg "Trace.scale_to_mean: zero-mean trace";
  of_rates ~dt:t.dt (Array.map (fun r -> r *. target /. m) t.rates)

let to_csv t =
  let buf = Buffer.create (16 * Array.length t.rates) in
  Buffer.add_string buf "time,rate\n";
  Array.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf "%.6f,%.9g\n" (float_of_int i *. t.dt) r))
    t.rates;
  Buffer.contents buf

let of_csv s =
  let lines = String.split_on_char '\n' s in
  let parse_line line =
    match String.split_on_char ',' (String.trim line) with
    | [ time; rate ] -> (
        try Some (float_of_string time, float_of_string rate)
        with _ -> failwith ("Trace.of_csv: bad line: " ^ line))
    | [ "" ] | [] -> None
    | _ -> failwith ("Trace.of_csv: bad line: " ^ line)
  in
  let rows =
    List.filter_map parse_line
      (match lines with
      | header :: rest when String.length header >= 4
                            && String.sub header 0 4 = "time" -> rest
      | all -> all)
  in
  match rows with
  | [] | [ _ ] -> failwith "Trace.of_csv: need at least two samples"
  | (t0, _) :: (t1, _) :: _ ->
      let dt = t1 -. t0 in
      if dt <= 0.0 then failwith "Trace.of_csv: non-increasing timestamps";
      create ~dt (Array.of_list (List.map snd rows))
