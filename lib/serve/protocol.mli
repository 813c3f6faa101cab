(** The serving engine's wire protocol: compact length-prefixed binary
    frames.

    A frame is a 4-byte little-endian unsigned payload length followed
    by the payload; the payload is a 1-byte message tag followed by the
    tag's fixed-layout body (see SERVING.md for the full frame
    catalogue).  Scalars are little-endian throughout: [u8]/[u16]/[u32]
    unsigned integers, [i64] two's-complement, [f64] IEEE-754 binary64.
    Strings are a [u16] byte length followed by the bytes (no
    terminator).

    Decoding never raises on wire data: every malformed input is a typed
    {!error}.  Encoding appends to a caller-supplied [Buffer.t], so a
    session can reuse one scratch buffer per connection and the encode
    path allocates nothing else. *)

(** {1 Messages} *)

type request =
  | Initialize of { capacity : float }
      (** Reset counters and estimator state against a new link
          capacity (must be finite and positive — rejected at the
          engine, not the codec). *)
  | Decide of { criterion : int; load : float; now : float }
      (** Admission decision for one flow of declared [load] against
          criterion index [criterion], at client virtual time [now].
          Read-only: the caller follows up with {!Add} iff it admits. *)
  | Add of { load : float; now : float }
      (** Account an admitted flow's load into the admitted-load
          counters. *)
  | Subtract of { load : float; now : float }
      (** Remove a departed flow's load from the admitted-load
          counters. *)
  | Log_decision of { criterion : int; admit : bool }
      (** Append one line to the server's decision log (sequence number
          assigned server-side). *)
  | Stats  (** Query the engine counters. *)
  | Shutdown
      (** Ask the server to stop accepting work and exit cleanly. *)

type response =
  | Ok_reply
  | Decision of { admit : bool; admissible : int; flows : int }
      (** [admissible] is the criterion's count M under the latest
          measurement; [flows] the admitted-flow count n ([admit]
          implies [flows < admissible] plus load headroom). *)
  | Stats_reply of {
      flows : int;
      admitted_load : float;
      capacity : float;
      requests : int;
      decisions : int;
      admits : int;
      updates : int;  (** measurement passes and [Initialize]s so far *)
    }
  | Error_reply of { code : int; message : string }

(** {1 Typed decode errors} *)

type error =
  | Truncated of { expected : int; got : int }
      (** The frame (or its length prefix) needs [expected] bytes but
          only [got] are available — for a stream transport this means
          "read more and retry". *)
  | Bad_tag of int  (** Unknown message tag byte. *)
  | Bad_frame of string
      (** Structurally invalid: oversized or undersized payload for the
          tag, string length overrunning the payload, ... *)

val error_to_string : error -> string

val max_frame_payload : int
(** Upper bound on the payload length a well-formed peer may send
    (guards the server against absurd allocations); currently 65535. *)

(** {1 Encoding}

    Each [encode_*] appends one complete frame (length prefix included)
    to [buf]. *)

val encode_request : Buffer.t -> request -> unit
val encode_response : Buffer.t -> response -> unit

(** {1 Decoding}

    Frame-level decoders consume one complete frame from [bytes] at
    [pos] given [avail] readable bytes from [pos], returning the message
    and the total bytes consumed (prefix + payload).  {!Truncated} means
    the input may simply not have arrived yet; every other error is
    fatal for the stream. *)

val decode_request : Bytes.t -> pos:int -> avail:int -> (request * int, error) result
val decode_response : Bytes.t -> pos:int -> avail:int -> (response * int, error) result

val request_tag : request -> int

val request_name : request -> string
(** The constructor's name (["Log_decision"], ...), for messages. *)

val response_tag : response -> int
