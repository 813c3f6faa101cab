(* Host-speed yardsticks, run as a process of their own (see calib.ml).
   It links none of the libraries the benchmark measures and keeps the
   runtime's default GC settings.

     hostcal.exe alloc|pingpong|paced

   For each line "NS" on stdin it runs whole rounds of its loop for at
   least NS nanoseconds and answers "OPS NS": the rounds it ran and the
   nanoseconds they took (paced: the nanoseconds inside its exchanges).
   It exits at end of input. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* alloc: short-lived tuples and list cells, allocated the way the
   simulators allocate; the list is cut every 1024 cells so it stays
   young.  One round is [chunk] cells. *)
let chunk = 200_000

let alloc_round () =
  let acc = ref [] in
  for i = 1 to chunk do
    acc :=
      (float_of_int i, float_of_int (i + 1))
      :: (if i land 1023 = 0 then [] else !acc)
  done;
  ignore (Sys.opaque_identity !acc)

(* pingpong: a 32-byte message to a forked peer over a Unix socketpair
   and back, the kernel path of one RPC (two syscalls and a context
   switch each way when both share a CPU).  One round is one exchange. *)
let msg = 32

let rec read_full fd buf off =
  if off < msg then
    match Unix.read fd buf off (msg - off) with
    | 0 -> raise End_of_file
    | n -> read_full fd buf (off + n)

let ping_pong () =
  let mine, peer = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
      Unix.close mine;
      let buf = Bytes.create msg in
      (try
         while true do
           read_full peer buf 0;
           ignore (Unix.write peer buf 0 msg)
         done
       with End_of_file | Unix.Unix_error _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close peer;
      let buf = Bytes.create msg in
      let round () =
        ignore (Unix.write mine buf 0 msg);
        read_full mine buf 0
      in
      let stop () =
        Unix.close mine;
        ignore (Unix.waitpid [] pid)
      in
      (round, stop)

(* paced: one exchange every [gap] ns, spinning in between, as the
   open loop paces its requests; only the exchanges are timed, so the
   loop sees what idle gaps do to an exchange (caches cooling under the
   neighbours' load) rather than the gaps themselves. *)
let gap = 100_000

let () =
  let round, per_round, stop =
    match Sys.argv with
    | [| _; "alloc" |] -> (alloc_round, chunk, ignore)
    | [| _; ("pingpong" | "paced") |] ->
        let round, stop = ping_pong () in
        (round, 1, stop)
    | _ ->
        prerr_endline "usage: hostcal.exe alloc|pingpong|paced";
        exit 2
  in
  let paced = Sys.argv.(1) = "paced" in
  (* one round first, so the first sample pays no start-up costs *)
  round ();
  (try
     while true do
       let ns = int_of_string (String.trim (input_line stdin)) in
       let t0 = now_ns () in
       let k = ref 0 and busy = ref 0 in
       while !k = 0 || now_ns () - t0 < ns do
         if paced then begin
           let next = t0 + (!k * gap) in
           while now_ns () < next do () done;
           let s = now_ns () in
           round ();
           busy := !busy + (now_ns () - s)
         end
         else round ();
         incr k
       done;
       let took = if paced then !busy else now_ns () - t0 in
       Printf.printf "%d %d\n%!" (!k * per_round) took
     done
   with End_of_file -> ());
  stop ()
