(* Monotonic time, peak-RSS and CPU-affinity probes. *)

let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Peak RSS of this process's own address space, in KiB: VmHWM from
   /proc/self/status.  getrusage's ru_maxrss would not do: Linux carries
   it across exec, so it would report the launcher's RSS (run.py's
   Python interpreter, ~14 MB) whenever that is the larger. *)
let self_peak_rss_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" Fun.id
        | Some _ -> find ()
        | None -> failwith "no VmHWM in /proc/self/status"
      in
      find ())

external wait4 : int -> nohang:bool -> int * int = "perfbench_wait4"
(** [wait4 pid ~nohang] reaps [pid]: (exit code or -signal, peak RSS in
    KiB); (-1000, 0) if [nohang] and it is still running.  The peak
    carries over [exec], so it is at least this process's RSS when it
    spawned [pid]. *)

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external pin : int -> unit = "perfbench_pin"

let mb_of_kb kb = float_of_int kb /. 1024.0

(* Median of a non-empty sample (mean of the middle pair when even). *)
let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "median: empty"
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile of a sorted array, [q] in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: empty"
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
