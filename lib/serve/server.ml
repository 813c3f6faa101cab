module H = Mbac_telemetry.Metrics.Handle

let m_latency = H.qhist "serve_decision_latency_seconds"
let m_connections = H.counter "serve_connections_total"

(* Integer nanoseconds: the latency reaches the histogram through
   [observe_fixed], so no float is boxed on the way. *)
let clock_ns () = Int64.to_int (Monotonic_clock.now ())

(* Read the request frame at [pos] into the engine's fields and, if it
   is whole and well formed, answer it into [out].  A [Decide]'s
   latency (read, engine, reply written) goes to [m_latency]. *)
let serve_frame engine bytes ~pos ~avail out =
  let t0 = clock_ns () in
  let f = Engine.fields engine in
  match Protocol.read_request bytes ~pos ~avail f with
  | Frame ->
      Engine.reply engine out;
      (match f.kind with
      | Decide ->
          H.observe_fixed m_latency (clock_ns () - t0) ~scale:1_000_000_000
      | Initialize | Add | Subtract | Log_decision | Stats | Shutdown -> ());
      Protocol.Frame
  | (Partial | Malformed) as r -> r

let handle_frame engine bytes ~pos ~avail out =
  match serve_frame engine bytes ~pos ~avail out with
  | Frame ->
      let f = Engine.fields engine in
      Ok (f.size, match f.kind with Shutdown -> `Shutdown | _ -> `Continue)
  | Partial | Malformed -> Error (Protocol.request_error bytes ~pos ~avail)

let conn_opened () = H.inc m_connections

let conn_closed ~peer ~requests ~batches =
  if Mbac_telemetry.Trace.enabled () then
    Mbac_telemetry.Trace.emit ~t:0.0 ~kind:"serve_conn"
      [ ("peer", Mbac_telemetry.Trace.Str peer);
        ("requests", Mbac_telemetry.Trace.Int requests);
        ("batches", Mbac_telemetry.Trace.Int batches) ]

(* ---------- the batch loop ---------- *)

type session = {
  engine : Engine.t;
  mutable requests : int;  (* frames answered *)
  mutable batches : int;  (* [answer] calls that answered a frame *)
  mutable stop : [ `Open | `Shutdown | `Failed ];
}

let session engine = { engine; requests = 0; batches = 0; stop = `Open }

(* A while loop over refs rather than a local recursive function: the
   closure would be allocated on every call, and the in-process
   transport calls this once per round trip.  The refs do not escape,
   so they live in registers. *)
let answer s bytes ~pos ~avail out =
  let limit = pos + avail in
  let f = Engine.fields s.engine in
  let p = ref pos and frames = ref 0 and more = ref true in
  while !more && !p < limit do
    match serve_frame s.engine bytes ~pos:!p ~avail:(limit - !p) out with
    | Frame ->
        p := !p + f.size;
        incr frames;
        (match f.kind with
        | Shutdown ->
            s.stop <- `Shutdown;
            more := false
        | Initialize | Decide | Add | Subtract | Log_decision | Stats -> ())
    | Partial -> more := false
    | Malformed ->
        Protocol.write_error out ~code:255
          (Protocol.error_to_string
             (Protocol.request_error bytes ~pos:!p ~avail:(limit - !p)));
        s.stop <- `Failed;
        more := false
  done;
  s.requests <- s.requests + !frames;
  if !frames > 0 then s.batches <- s.batches + 1;
  !p - pos

(* ---------- socket transport ---------- *)

let write_all fd bytes len =
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

(* What the threads of one [serve] share.  [lock] is the daemon lock:
   every use of the engine and of telemetry, and of [stop] and [live],
   happens with it held, and it is never held across a socket read or
   write. *)
type daemon = {
  lock : Mutex.t;
  engine : Engine.t;
  mutable stop : bool;
  (* The descriptors of the connections being served.  A service thread
     takes its own out after its last use of the engine and before
     closing it, so the shutdown at the end of [serve] never reaches a
     descriptor number the kernel has handed out again. *)
  mutable live : Unix.file_descr list;
  drained : Condition.t;  (* signalled when [live] becomes empty *)
}

let locked d f = Mutex.protect d.lock f

let leave d fd =
  locked d (fun () ->
      d.live <- List.filter (( <> ) fd) d.live;
      if d.live = [] then Condition.broadcast d.drained)

(* Serve one connected stream until EOF, a fatal protocol error (the
   peer gets a final [Error_reply], code 255), or a [Shutdown] request.
   Each read is answered by [answer], under the daemon lock, and all its
   replies go out in one write; the trace event counts as [batches] the
   reads that carried at least one complete frame.  A write or read
   error on the descriptor (a peer that hung up) ends this connection
   only.  The descriptor is left open for the caller to close. *)
let serve_connection d fd ~peer =
  (* One frame-assembly buffer per connection, sized for the largest
     legal frame; a frame split across reads is compacted to the front. *)
  let inbuf = Bytes.create (2 * (4 + Protocol.max_frame_payload)) in
  let fill = ref 0 in
  let out = Buffer.create 512 in
  let outbytes = ref (Bytes.create 512) in
  let s = session d.engine in
  let is_open () = match s.stop with `Open -> true | `Shutdown | `Failed -> false in
  let eof = ref false in
  (try
     while is_open () && not !eof do
       (* answer every complete frame currently buffered, in one write *)
       Buffer.clear out;
       (* the lock is taken by hand: a closure for [locked] would be
          allocated on every read *)
       Mutex.lock d.lock;
       let consumed =
         match answer s inbuf ~pos:0 ~avail:!fill out with
         | n ->
             Mutex.unlock d.lock;
             n
         | exception e ->
             Mutex.unlock d.lock;
             raise e
       in
       if consumed > 0 then begin
         Bytes.blit inbuf consumed inbuf 0 (!fill - consumed);
         fill := !fill - consumed
       end;
       let n_out = Buffer.length out in
       if n_out > 0 then begin
         if Bytes.length !outbytes < n_out then
           outbytes := Bytes.create n_out;
         Buffer.blit out 0 !outbytes 0 n_out;
         write_all fd !outbytes n_out
       end;
       if is_open () then begin
         let n = Unix.read fd inbuf !fill (Bytes.length inbuf - !fill) in
         if n = 0 then eof := true else fill := !fill + n
       end
     done
   with Unix.Unix_error _ | End_of_file -> ());
  locked d (fun () ->
      conn_closed ~peer ~requests:s.requests ~batches:s.batches);
  match s.stop with `Shutdown -> `Shutdown | `Open | `Failed -> `Closed

(* Connect a throwaway client to [path] and close it at once.  It wakes
   a blocked [accept] after shutdown was requested from a service thread
   (closing the listening descriptor from another thread does not
   reliably interrupt accept), and it tells a live daemon's socket from
   one a dead daemon left: only the latter refuses ([ECONNREFUSED]). *)
let probe path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.connect fd (Unix.ADDR_UNIX path))

type listener = { sock : Unix.file_descr; path : string }

let close l =
  (try Unix.close l.sock with Unix.Unix_error _ -> ());
  try Unix.unlink l.path with Unix.Unix_error _ -> ()

let listen ~path =
  let refuse reason = failwith (Printf.sprintf "%s: %s" path reason) in
  (* a socket left by a daemon that died is replaced; a live daemon's
     socket and any other file at [path] are not ours to remove *)
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      try
        match probe path with
        | () -> refuse "a daemon is already serving"
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
            Unix.unlink path
      with Unix.Unix_error (e, _, _) -> refuse (Unix.error_message e))
  | _ -> refuse "exists and is not a socket (left untouched)"
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> refuse (Unix.error_message e));
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind sock (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     Unix.close sock;
     refuse (Unix.error_message e));
  let l = { sock; path } in
  (try Unix.listen sock 16
   with Unix.Unix_error (e, _, _) ->
     close l;
     refuse (Unix.error_message e));
  l

(* A measurement pass every [interval] wall-clock seconds until [stop].
   The wait is slept in slices of at most 50 ms, so that the timer sees
   a stop promptly whatever the interval. *)
let measure_timer d interval =
  let rec wait left =
    if left > 0.0 && not (locked d (fun () -> d.stop)) then begin
      Thread.delay (Float.min left 0.05);
      wait (left -. 0.05)
    end
  in
  let rec tick () =
    wait interval;
    let go =
      locked d (fun () ->
          if not d.stop then
            Engine.run_measurement d.engine ~now:(Unix.gettimeofday ());
          not d.stop)
    in
    if go then tick ()
  in
  tick ()

let serve ?measure_interval l engine =
  (match measure_interval with
  | Some interval when not (interval > 0.0) ->
      invalid_arg "Server.serve: measure_interval must be > 0"
  | Some _ | None -> ());
  (* a reply to a peer that hung up must fail as EPIPE on that
     connection, not kill the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let d =
    { lock = Mutex.create (); engine; stop = false; live = [];
      drained = Condition.create () }
  in
  let timer = Option.map (Thread.create (measure_timer d)) measure_interval in
  let connection (fd, peer) =
    let ending =
      Fun.protect
        ~finally:(fun () ->
          leave d fd;
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> serve_connection d fd ~peer)
    in
    match ending with
    | `Shutdown ->
        locked d (fun () -> d.stop <- true);
        (try probe l.path with Unix.Unix_error _ -> ())
    | `Closed -> ()
  in
  (* Runs however the accept loop ends.  A client that stays connected
     but idle has its thread blocked in [read]: end every stream still
     open so those reads return, then wait until every service thread
     has left [live], which it does after its last use of the engine.
     Service threads are not kept, so a long-lived daemon holds nothing
     for the connections it has closed. *)
  let wind_down () =
    locked d (fun () ->
        d.stop <- true;
        List.iter
          (fun fd ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
          d.live;
        while d.live <> [] do
          Condition.wait d.drained d.lock
        done);
    Option.iter Thread.join timer;
    close l
  in
  Fun.protect ~finally:wind_down (fun () ->
      let conn_id = ref 0 in
      while not (locked d (fun () -> d.stop)) do
        match Unix.accept l.sock with
        | fd, _ ->
            if locked d (fun () -> d.stop) then Unix.close fd
            else begin
              locked d (fun () ->
                  conn_opened ();
                  d.live <- fd :: d.live);
              incr conn_id;
              let peer = Printf.sprintf "unix-%d" !conn_id in
              match Thread.create connection (fd, peer) with
              | (_ : Thread.t) -> ()
              | exception e ->
                  leave d fd;
                  Unix.close fd;
                  raise e
            end
        (* a connection reset before it was accepted, or a signal *)
        | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> ()
        (* out of descriptors or memory: the pending connection waits in
           the backlog until a served one closes *)
        | exception Unix.Unix_error ((EMFILE | ENFILE | ENOBUFS | ENOMEM), _, _)
          ->
            Thread.delay 0.01
      done)
