module H = Mbac_telemetry.Metrics.Handle

let m_latency = H.qhist "serve_decision_latency_seconds"
let m_connections = H.counter "serve_connections_total"

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let handle_frame engine bytes ~pos ~avail out =
  let t0 = now_ns () in
  match Protocol.decode_request bytes ~pos ~avail with
  | Error _ as e -> e
  | Ok (req, consumed) ->
      let resp = Engine.handle engine req in
      Protocol.encode_response out resp;
      (match req with
      | Protocol.Decide _ ->
          H.observe_q m_latency ((now_ns () -. t0) /. 1e9)
      | _ -> ());
      Ok (consumed, match req with Protocol.Shutdown -> `Shutdown | _ -> `Continue)

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
   transport calls this once per round trip. *)
let answer s bytes ~pos ~avail out =
  let limit = pos + avail in
  let p = ref pos and frames = ref 0 and more = ref true in
  while !more && !p < limit do
    match handle_frame s.engine bytes ~pos:!p ~avail:(limit - !p) out with
    | Ok (consumed, `Continue) ->
        p := !p + consumed;
        incr frames
    | Ok (consumed, `Shutdown) ->
        p := !p + consumed;
        incr frames;
        s.stop <- `Shutdown;
        more := false
    | Error (Protocol.Truncated _) -> more := false
    | Error e ->
        Protocol.encode_response out
          (Protocol.Error_reply
             { code = 255; message = Protocol.error_to_string e });
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

let serve_connection engine fd ~peer =
  (* One frame-assembly buffer per connection, sized for the largest
     legal frame; a frame split across reads is compacted to the front. *)
  let inbuf = Bytes.create (2 * (4 + Protocol.max_frame_payload)) in
  let fill = ref 0 in
  let out = Buffer.create 512 in
  let outbytes = ref (Bytes.create 512) in
  let s = session engine in
  let is_open () = match s.stop with `Open -> true | `Shutdown | `Failed -> false in
  let eof = ref false in
  (try
     while is_open () && not !eof do
       (* answer every complete frame currently buffered, in one write *)
       Buffer.clear out;
       let consumed = answer s inbuf ~pos:0 ~avail:!fill out in
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
  (try Unix.close fd with Unix.Unix_error _ -> ());
  conn_closed ~peer ~requests:s.requests ~batches:s.batches;
  match s.stop with `Shutdown -> `Shutdown | `Open | `Failed -> `Closed

(* Wake a blocked [accept] after shutdown was requested from a service
   thread: connect-and-close a throwaway client.  (Closing the listening
   descriptor from another thread does not reliably interrupt accept.) *)
let wake path =
  try
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with Unix.Unix_error _ -> ());
    Unix.close fd
  with Unix.Unix_error _ -> ()

let run_unix engine ~path =
  (* a reply to a peer that hung up must fail as EPIPE on that
     connection, not kill the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let stop = Atomic.make false in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 16;
      let threads = ref [] in
      let conn_id = ref 0 in
      (try
         while not (Atomic.get stop) do
           let fd, _ = Unix.accept sock in
           if Atomic.get stop then Unix.close fd
           else begin
             conn_opened ();
             incr conn_id;
             let peer = Printf.sprintf "unix-%d" !conn_id in
             let th =
               Thread.create
                 (fun () ->
                   match serve_connection engine fd ~peer with
                   | `Shutdown ->
                       Atomic.set stop true;
                       wake path
                   | `Closed -> ())
                 ()
             in
             threads := th :: !threads
           end
         done
       with Unix.Unix_error _ -> ());
      List.iter Thread.join !threads)
