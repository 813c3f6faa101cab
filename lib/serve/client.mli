(** Client connections to a serving engine, over either transport.

    Both transports speak the same {!Protocol} frames: the in-process
    transport routes every request through the codec and the shared
    {!Server.answer} batch loop, so it exercises exactly the bytes a
    socket peer would see — it just skips the kernel.  All buffers are
    reused across calls; a connection is single-owner (not
    thread-safe).

    Requests are pipelined: {!post} queues a request without waiting
    for its reply, and the next {!rpc} sends every queued frame plus its
    own in one write, then reads all the replies, which come back
    strictly in request order. *)

type t

exception Post_failed of Protocol.request * Protocol.response
(** [Post_failed (request, reply)]: a posted [request] was answered
    with [reply] instead of [Ok_reply]. *)

val inproc : Engine.t -> t
(** Attach to an engine in this process (counts as a connection). *)

val connect_unix : ?retries:int -> path:string -> unit -> t
(** Connect to a daemon's Unix socket, retrying ([retries] × 100 ms,
    default 50) while the path does not exist or refuses — covers the
    daemon still starting up.
    @raise Failure when retries are exhausted. *)

val rpc : t -> Protocol.request -> Protocol.response
(** One round trip: send the posted frames and this request, read all
    their replies, and return this request's.
    @raise Post_failed if a posted request's reply is not [Ok_reply]
    (the first such, raised once every reply of the round trip has been
    read, so the connection stays usable; this request's own reply is
    then dropped).
    @raise Failure on a protocol violation or a peer that closed, hung
    up ([ECONNRESET]) or cannot be written to ([EPIPE]). *)

val post : t -> Protocol.request -> unit
(** Queue a request whose only legal reply is [Ok_reply] ([Initialize],
    [Add], [Subtract], [Log_decision]); the next {!rpc} carries it.  A
    post that would take the queued frames past the batch budget (a
    16 KiB constant) first sends them as a round trip of their own, so
    no caller can fill the socket buffers in both directions and
    deadlock with the daemon.
    @raise Invalid_argument for [Decide], [Stats] and [Shutdown], which
    need {!rpc}.
    @raise Post_failed or [Failure] as {!rpc}, from that round trip; the
    request is then not queued. *)

val close : t -> unit
(** Close the connection (emits the per-connection trace event, whose
    [batches] counts this client's round trips).  Posted frames that no
    {!rpc} has sent are dropped unsent: the engine never sees them, so
    end with an {!rpc} (such as [Stats]) to have them applied. *)
