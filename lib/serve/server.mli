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
(** Answer one request frame at [pos] the way {!answer} does (read into
    {!Engine.fields}, {!Engine.reply}), appending the response frame to
    the output buffer.  Returns bytes consumed and whether the request
    asked for shutdown.  [Truncated] means "feed me more bytes"; other
    errors are fatal for the stream.  Only the result allocates. *)

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
    frame in the [avail] bytes at [pos], appending the replies to the
    buffer in request order, and return the bytes consumed.  Each frame
    is read in place ({!Protocol.read_request} into {!Engine.fields})
    and answered by {!Engine.reply}, which writes its reply straight
    into the buffer: a batch of [Decide], [Add], [Subtract] and
    [Log_decision] frames allocates nothing.  It stops early at a truncated frame (the rest has not
    arrived), after a [Shutdown], or at a malformed frame, which is
    answered with a final [Error_reply] (code 255); {!serve} closes the
    stream after either of the last two.  It uses the session's engine:
    one thread at a time ({!serve} holds its daemon lock around it). *)

type listener
(** A bound, listening Unix socket and its path. *)

val listen : path:string -> listener
(** Bind [path] and listen on it, before a daemon opens anything else
    (its decision log).  A socket file already there is probed with a
    connection closed at once: one a daemon accepts is refused and left
    alone, one refused (left by a daemon that died) is replaced.  Any
    other kind of file is refused, untouched.
    @raise Failure ["<path>: <reason>"] for those refusals ("a daemon is
    already serving", "exists and is not a socket (left untouched)")
    and for a path that cannot be bound (a missing directory, a path
    longer than the socket address allows, ...). *)

val close : listener -> unit
(** Close the socket and remove its file: for a set-up that fails after
    {!listen}. *)

val serve : ?measure_interval:float -> listener -> Engine.t -> unit
(** Accept connections and serve each on a thread of its own, which
    blocks in its socket reads, until some connection sends [Shutdown].
    Every use of the engine and of telemetry ({!answer} on each read,
    {!conn_opened}, {!conn_closed}, a measurement pass) happens under
    one daemon lock, never held across a socket read or write, so the
    engine sees one thread at a time.  With [measure_interval], a timer
    thread runs {!Engine.run_measurement} every [measure_interval]
    wall-clock seconds, stamped with wall-clock time: give it an engine
    whose [measure_every] is 0, since the inline passes are stamped with
    the clients' virtual time.

    A service thread is not kept once its connection has closed, so a
    long-lived daemon's memory does not grow with the connections it
    has served.  At [Shutdown], it shuts down the connections still open
    (an idle client does not hold the daemon up: its stream ends), waits
    until every service thread is past its last use of the engine, joins
    the timer, and {!close}s the listener.  An
    [accept] that fails for want of descriptors or memory ([EMFILE],
    [ENFILE], [ENOBUFS], [ENOMEM]) is retried after 10 ms, one
    interrupted or aborted ([EINTR], [ECONNABORTED]) at once; any other
    error ends serving the same way and is raised.  It sets SIGPIPE to
    ignored for the whole process, so a reply written to a client that
    hung up fails with [EPIPE] and closes that connection, instead of
    killing the process.
    @raise Invalid_argument if [measure_interval <= 0].
    @raise Unix.Unix_error for an [accept] error not retried. *)
