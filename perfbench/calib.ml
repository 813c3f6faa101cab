(* Host-speed calibration.

   On a shared VM the speed of the host swings by up to 2x in phases
   lasting seconds to minutes (README.md, "Host drift"), longer than one
   run, so no amount of work within a run averages it out.  A fixed
   loop of the benchmark's own (hostcal.ml) is timed between a run's
   timed calls and the run's figures are scaled by its speed relative
   to the reference machine, which leaves the program's own speed.
   The simulators are scaled by an allocation loop; serve-socket, which
   is syscall- and context-switch-bound, by a socketpair ping-pong:
   back to back for its set-ups and closed loop, paced like its open
   loop for that loop's latency.

   The loop runs in a separate process, started once per run and driven
   over a pipe, with the runtime's default GC settings (OCAMLRUNPARAM is
   dropped from its environment).  Nothing the program does to its own
   runtime — GC parameters, heap size, major-GC work — reaches the loop,
   so a change that speeds up the program speeds up the scaled figure
   instead of the yardstick.  The loop shares the one CPU the benchmark
   is pinned to, and never runs while the program does. *)

type loop = Alloc | Ping_pong | Paced

(* Rounds per second on the reference machine (a 2-vCPU Xeon VM at
   2.0 GHz, median over 60 to 300 samples of 30 to 50 ms); they only
   set the scale at which normalized figures read like raw ones there. *)
let reference_per_s = function
  | Alloc -> 120.0e6
  | Ping_pong -> 144.0e3
  | Paced -> 81.5e3

type t = {
  loop : loop;
  pid : int;
  to_loop : out_channel;
  from_loop : in_channel;
  mutable ops : int;
  mutable ns : int;
  mutable factors : float list;  (* per sample, newest first *)
}

let live : t list ref = ref []

let create ~exe loop =
  let env =
    Array.of_list
      (List.filter
         (fun kv ->
           not
             (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv
             || String.starts_with ~prefix:"CAMLRUNPARAM=" kv))
         (Array.to_list (Unix.environment ())))
  in
  let arg = match loop with Alloc -> "alloc" | Ping_pong -> "pingpong" | Paced -> "paced" in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process_env exe [| exe; arg |] env in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let t =
    { loop; pid; to_loop = Unix.out_channel_of_descr in_w;
      from_loop = Unix.in_channel_of_descr out_r; ops = 0; ns = 0; factors = [] }
  in
  live := t :: !live;
  t

(* Close the loop's input, so it exits, and reap it. *)
let close t =
  (try close_out t.to_loop with Sys_error _ -> ());
  (try close_in t.from_loop with Sys_error _ -> ());
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x != t) !live

let cleanup_all () = List.iter close !live

(* Run the loop for at least [ns] nanoseconds. *)
let sample t ~ns =
  Printf.fprintf t.to_loop "%d\n%!" ns;
  let ops, took =
    try Scanf.sscanf (input_line t.from_loop) "%d %d" (fun o n -> (o, n))
    with End_of_file | Scanf.Scan_failure _ ->
      failwith "host calibration loop stopped answering"
  in
  t.ops <- t.ops + ops;
  t.ns <- t.ns + took;
  t.factors <-
    (float_of_int ops /. (float_of_int took *. 1e-9) /. reference_per_s t.loop)
    :: t.factors

(* Host speed relative to the reference machine (>1: faster), over the
   samples since creation or the last [reset]. *)
let factor t =
  float_of_int t.ops /. (float_of_int t.ns *. 1e-9) /. reference_per_s t.loop

let reset t =
  t.ops <- 0;
  t.ns <- 0;
  t.factors <- []
