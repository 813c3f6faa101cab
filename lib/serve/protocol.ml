type request =
  | Initialize of { capacity : float }
  | Decide of { criterion : int; load : float; now : float }
  | Add of { load : float; now : float }
  | Subtract of { load : float; now : float }
  | Log_decision of { criterion : int; admit : bool }
  | Stats
  | Shutdown

type response =
  | Ok_reply
  | Decision of { admit : bool; admissible : int; flows : int }
  | Stats_reply of {
      flows : int;
      admitted_load : float;
      capacity : float;
      requests : int;
      decisions : int;
      admits : int;
      updates : int;
    }
  | Error_reply of { code : int; message : string }

type error =
  | Truncated of { expected : int; got : int }
  | Bad_tag of int
  | Bad_frame of string

let error_to_string = function
  | Truncated { expected; got } ->
      Printf.sprintf "truncated frame: need %d bytes, have %d" expected got
  | Bad_tag tag -> Printf.sprintf "unknown message tag 0x%02x" tag
  | Bad_frame msg -> Printf.sprintf "malformed frame: %s" msg

let max_frame_payload = 0xFFFF

(* ---------- tags ---------- *)

let tag_initialize = 0x01
let tag_decide = 0x02
let tag_add = 0x03
let tag_subtract = 0x04
let tag_log_decision = 0x05
let tag_stats = 0x06
let tag_shutdown = 0x07
let tag_ok = 0x81
let tag_decision = 0x82
let tag_stats_reply = 0x83
let tag_error = 0x84

let request_tag = function
  | Initialize _ -> tag_initialize
  | Decide _ -> tag_decide
  | Add _ -> tag_add
  | Subtract _ -> tag_subtract
  | Log_decision _ -> tag_log_decision
  | Stats -> tag_stats
  | Shutdown -> tag_shutdown

let request_name = function
  | Initialize _ -> "Initialize"
  | Decide _ -> "Decide"
  | Add _ -> "Add"
  | Subtract _ -> "Subtract"
  | Log_decision _ -> "Log_decision"
  | Stats -> "Stats"
  | Shutdown -> "Shutdown"

(* ---------- little-endian scalar writers ---------- *)

(* Integers only cross into [Buffer]: a boxed [Int32]/[Int64] argument
   would allocate wherever the stdlib writer is not inlined. *)
let put_u8 buf v = Buffer.add_uint8 buf (v land 0xFF)
let put_u16 buf v = Buffer.add_uint16_le buf (v land 0xFFFF)

let put_u32 buf v =
  put_u16 buf v;
  put_u16 buf (v lsr 16)

let put_i64 buf v =
  put_u32 buf v;
  put_u32 buf (v asr 32)

let[@inline] put_f64 buf v =
  let bits = Int64.bits_of_float v in
  put_u32 buf (Int64.to_int bits);
  put_u32 buf (Int64.to_int (Int64.shift_right_logical bits 32))

let put_string buf s =
  let n = min (String.length s) 0xFFFF in
  put_u16 buf n;
  Buffer.add_substring buf s 0 n

(* Payload sizes are fixed per tag (plus the string tail of Error_reply),
   so the length prefix is computed up front and each encoder emits one
   contiguous frame — no patching, no second pass. *)

let encode_request buf r =
  match r with
  | Initialize { capacity } ->
      put_u32 buf 9;
      put_u8 buf tag_initialize;
      put_f64 buf capacity
  | Decide { criterion; load; now } ->
      put_u32 buf 19;
      put_u8 buf tag_decide;
      put_u16 buf criterion;
      put_f64 buf load;
      put_f64 buf now
  | Add { load; now } | Subtract { load; now } ->
      put_u32 buf 17;
      put_u8 buf (request_tag r);
      put_f64 buf load;
      put_f64 buf now
  | Log_decision { criterion; admit } ->
      put_u32 buf 4;
      put_u8 buf tag_log_decision;
      put_u16 buf criterion;
      put_u8 buf (if admit then 1 else 0)
  | Stats | Shutdown ->
      put_u32 buf 1;
      put_u8 buf (request_tag r)

(* ---------- reply writers: one per reply layout ---------- *)

let write_ok buf =
  put_u32 buf 1;
  put_u8 buf tag_ok

let write_decision buf ~admit ~admissible ~flows =
  put_u32 buf 10;
  put_u8 buf tag_decision;
  put_u8 buf (if admit then 1 else 0);
  put_u32 buf admissible;
  put_u32 buf flows

let write_stats buf ~flows ~admitted_load ~capacity ~requests ~decisions
    ~admits ~updates =
  put_u32 buf 53;
  put_u8 buf tag_stats_reply;
  put_u32 buf flows;
  put_f64 buf admitted_load;
  put_f64 buf capacity;
  put_i64 buf requests;
  put_i64 buf decisions;
  put_i64 buf admits;
  put_i64 buf updates

let write_error buf ~code message =
  put_u32 buf (4 + min (String.length message) 0xFFFF);
  put_u8 buf tag_error;
  put_u8 buf code;
  put_string buf message

let encode_response buf = function
  | Ok_reply -> write_ok buf
  | Decision { admit; admissible; flows } ->
      write_decision buf ~admit ~admissible ~flows
  | Stats_reply
      { flows; admitted_load; capacity; requests; decisions; admits; updates }
    ->
      write_stats buf ~flows ~admitted_load ~capacity ~requests ~decisions
        ~admits ~updates
  | Error_reply { code; message } -> write_error buf ~code message

(* ---------- little-endian scalar readers ---------- *)

(* The readers below are only reached once the whole payload is known to
   be available (the frame-level decoder checks the prefix first), so
   in-payload bounds are enforced by construction: each tag's body has a
   fixed size that was matched against the payload length. *)

let get_u8 b ~pos = Char.code (Bytes.unsafe_get b pos)
let get_u16 b ~pos = get_u8 b ~pos lor (get_u8 b ~pos:(pos + 1) lsl 8)

(* frame fields never legitimately exceed 2^31; decode as unsigned *)
let get_u32 b ~pos = get_u16 b ~pos lor (get_u16 b ~pos:(pos + 2) lsl 16)
let get_i64 b ~pos = Int64.to_int (Bytes.get_int64_le b pos)
let[@inline] get_f64 b ~pos = Int64.float_of_bits (Bytes.get_int64_le b pos)

(* ---------- frame headers ---------- *)

(* The payload length of the frame at [pos] when its prefix is legal
   and all of it is among the [avail] bytes; [partial] when more bytes
   must arrive first, [malformed] for an empty or oversized payload.
   [header_error] names the fault of a header this refuses. *)
let partial = -1
let malformed = -2

let payload_length b ~pos ~avail =
  if avail < 4 then partial
  else begin
    let len = get_u32 b ~pos in
    if len > max_frame_payload || len = 0 then malformed
    else if avail < 4 + len then partial
    else len
  end

let header_error b ~pos ~avail =
  if avail < 4 then Truncated { expected = 4; got = avail }
  else begin
    let len = get_u32 b ~pos in
    if len > max_frame_payload then
      Bad_frame
        (Printf.sprintf "payload length %d exceeds %d" len max_frame_payload)
    else if len = 0 then Bad_frame "empty payload"
    else Truncated { expected = 4 + len; got = avail }
  end

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let frame_header b ~pos ~avail =
  let len = payload_length b ~pos ~avail in
  if len > 0 then Ok len else Error (header_error b ~pos ~avail)

let length_error ~tag ~expect ~got =
  Bad_frame
    (Printf.sprintf "tag 0x%02x payload is %d bytes, expected %d" tag got
       expect)

(* ---------- request frames, read in place ---------- *)

module Fields = struct
  type kind =
    | Initialize
    | Decide
    | Add
    | Subtract
    | Log_decision
    | Stats
    | Shutdown

  type scalars = {
    mutable capacity : float;
    mutable load : float;
    mutable now : float;
  }

  type t = {
    mutable kind : kind;
    mutable size : int;
    mutable criterion : int;
    mutable admit : bool;
    scalars : scalars;
  }

  let create () =
    { kind = Stats; size = 0; criterion = 0; admit = false;
      scalars = { capacity = 0.0; load = 0.0; now = 0.0 } }
end

type read = Frame | Partial | Malformed

(* A request tag's payload size, tag byte included; [-1] for a tag no
   request has. *)
let request_payload tag =
  if tag = tag_decide then 19
  else if tag = tag_add || tag = tag_subtract then 17
  else if tag = tag_log_decision then 4
  else if tag = tag_initialize then 9
  else if tag = tag_stats || tag = tag_shutdown then 1
  else -1

let read_request b ~pos ~avail (f : Fields.t) =
  let len = payload_length b ~pos ~avail in
  if len = partial then Partial
  else if len < 0 then Malformed
  else begin
    let p = pos + 4 in
    let tag = get_u8 b ~pos:p in
    if len <> request_payload tag then Malformed
    else begin
      let s = f.scalars in
      f.size <- 4 + len;
      if tag = tag_decide then begin
        f.kind <- Fields.Decide;
        f.criterion <- get_u16 b ~pos:(p + 1);
        s.load <- get_f64 b ~pos:(p + 3);
        s.now <- get_f64 b ~pos:(p + 11)
      end
      else if tag = tag_add || tag = tag_subtract then begin
        f.kind <- (if tag = tag_add then Fields.Add else Fields.Subtract);
        s.load <- get_f64 b ~pos:(p + 1);
        s.now <- get_f64 b ~pos:(p + 9)
      end
      else if tag = tag_log_decision then begin
        f.kind <- Fields.Log_decision;
        f.criterion <- get_u16 b ~pos:(p + 1);
        f.admit <- get_u8 b ~pos:(p + 3) <> 0
      end
      else if tag = tag_initialize then begin
        f.kind <- Fields.Initialize;
        s.capacity <- get_f64 b ~pos:(p + 1)
      end
      else if tag = tag_stats then f.kind <- Fields.Stats
      else f.kind <- Fields.Shutdown;
      Frame
    end
  end

let request_error b ~pos ~avail =
  match frame_header b ~pos ~avail with
  | Error e -> e
  | Ok len ->
      let tag = get_u8 b ~pos:(pos + 4) in
      let expect = request_payload tag in
      if expect < 0 then Bad_tag tag else length_error ~tag ~expect ~got:len

let decode_request b ~pos ~avail =
  let f = Fields.create () in
  match read_request b ~pos ~avail f with
  | Partial | Malformed -> Error (request_error b ~pos ~avail)
  | Frame ->
      let s = f.scalars in
      let req =
        match f.kind with
        | Fields.Initialize -> Initialize { capacity = s.capacity }
        | Fields.Decide ->
            Decide { criterion = f.criterion; load = s.load; now = s.now }
        | Fields.Add -> Add { load = s.load; now = s.now }
        | Fields.Subtract -> Subtract { load = s.load; now = s.now }
        | Fields.Log_decision ->
            Log_decision { criterion = f.criterion; admit = f.admit }
        | Fields.Stats -> Stats
        | Fields.Shutdown -> Shutdown
      in
      Ok (req, f.size)

(* ---------- response frames ---------- *)

let check_len ~tag ~expect ~got =
  if got = expect then Ok () else Error (length_error ~tag ~expect ~got)

let decode_response bytes ~pos ~avail =
  let* len = frame_header bytes ~pos ~avail in
  let p = pos + 4 in
  let tag = get_u8 bytes ~pos:p in
  let* msg =
    if tag = tag_ok then
      let* () = check_len ~tag ~expect:1 ~got:len in
      Ok Ok_reply
    else if tag = tag_decision then
      let* () = check_len ~tag ~expect:10 ~got:len in
      Ok
        (Decision
           { admit = get_u8 bytes ~pos:(p + 1) <> 0;
             admissible = get_u32 bytes ~pos:(p + 2);
             flows = get_u32 bytes ~pos:(p + 6) })
    else if tag = tag_stats_reply then
      let* () = check_len ~tag ~expect:53 ~got:len in
      Ok
        (Stats_reply
           { flows = get_u32 bytes ~pos:(p + 1);
             admitted_load = get_f64 bytes ~pos:(p + 5);
             capacity = get_f64 bytes ~pos:(p + 13);
             requests = get_i64 bytes ~pos:(p + 21);
             decisions = get_i64 bytes ~pos:(p + 29);
             admits = get_i64 bytes ~pos:(p + 37);
             updates = get_i64 bytes ~pos:(p + 45) })
    else if tag = tag_error then begin
      if len < 4 then
        Error
          (Bad_frame
             (Printf.sprintf "tag 0x%02x payload is %d bytes, expected >= 4"
                tag len))
      else
        let code = get_u8 bytes ~pos:(p + 1) in
        let msg_len = get_u16 bytes ~pos:(p + 2) in
        if 4 + msg_len <> len then
          Error
            (Bad_frame
               (Printf.sprintf
                  "error message length %d disagrees with payload length %d"
                  msg_len len))
        else
          Ok
            (Error_reply
               { code; message = Bytes.sub_string bytes (p + 4) msg_len })
    end
    else Error (Bad_tag tag)
  in
  Ok (msg, 4 + len)
