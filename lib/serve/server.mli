(** Frame-level request service: the shared session layer (used by both
    the Unix-socket daemon and the in-process transport) plus the
    socket accept loop.

    Decision latency (wall-clock, decode → engine → encoded response)
    is recorded per [Decide] request into the
    [serve_decision_latency_seconds] quantile histogram; connection
    opens count into [serve_connections_total], and when tracing is
    enabled each closed connection emits one ["serve_conn"] trace
    event. *)

val handle_frame :
  Engine.t ->
  Bytes.t ->
  pos:int ->
  avail:int ->
  Buffer.t ->
  (int * [ `Continue | `Shutdown ], Protocol.error) result
(** Decode one request frame at [pos], dispatch it, append the response
    frame to the output buffer.  Returns bytes consumed and whether the
    request asked for shutdown.  [Truncated] means "feed me more
    bytes"; other errors are fatal for the stream. *)

val conn_opened : unit -> unit
(** Count a connection (socket accept or in-process attach). *)

val conn_closed : peer:string -> requests:int -> batches:int -> unit
(** Emit the per-connection trace event (no-op unless tracing is on):
    [requests] frames answered in [batches] round trips. *)

type session
(** One connection's serving side: its engine and its counts. *)

val session : Engine.t -> session

val answer : session -> Bytes.t -> pos:int -> avail:int -> Buffer.t -> int
(** The batch loop both transports run: answer every complete request
    frame in the [avail] bytes at [pos] with {!handle_frame}, appending
    the replies to the buffer in request order, and return the bytes
    consumed.  It stops early at a truncated frame (the rest has not
    arrived), after a [Shutdown], or at a malformed frame, which is
    answered with a final [Error_reply] (code 255); {!serve_connection}
    closes the stream after either of the last two. *)

val serve_connection : Engine.t -> Unix.file_descr -> peer:string -> [ `Closed | `Shutdown ]
(** Serve one connected stream until EOF, a fatal protocol error (the
    peer gets a final [Error_reply], code 255), or a [Shutdown]
    request.  Each read is answered by {!answer}, all its replies in
    one write; the trace event counts as [batches] the reads that
    carried at least one complete frame.  A write or read error on the
    descriptor (a peer that hung up) ends this connection only.  Closes
    the descriptor. *)

val run_unix : Engine.t -> path:string -> unit
(** Bind [path] (replacing any stale socket file), accept connections
    (one service thread each), and block until some connection sends
    [Shutdown]; then join the service threads and remove the socket
    file.  It sets SIGPIPE to ignored for the whole process, so a
    reply written to a client that hung up fails with [EPIPE] and
    closes that connection, instead of killing the process. *)
