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

let response_tag = function
  | Ok_reply -> tag_ok
  | Decision _ -> tag_decision
  | Stats_reply _ -> tag_stats_reply
  | Error_reply _ -> tag_error

(* ---------- little-endian scalar writers ---------- *)

let put_u8 buf v = Buffer.add_uint8 buf (v land 0xFF)
let put_u16 buf v = Buffer.add_uint16_le buf (v land 0xFFFF)
let put_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let put_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)
let put_f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let put_string buf s =
  let n = min (String.length s) 0xFFFF in
  put_u16 buf n;
  Buffer.add_substring buf s 0 n

(* Payload sizes are fixed per tag (plus the string tail of Error_reply),
   so the length prefix is computed up front and each encoder emits one
   contiguous frame — no patching, no second pass. *)

let frame buf ~payload_len fill =
  put_u32 buf payload_len;
  fill buf

let encode_request buf r =
  match r with
  | Initialize { capacity } ->
      frame buf ~payload_len:9 (fun b ->
          put_u8 b tag_initialize;
          put_f64 b capacity)
  | Decide { criterion; load; now } ->
      frame buf ~payload_len:19 (fun b ->
          put_u8 b tag_decide;
          put_u16 b criterion;
          put_f64 b load;
          put_f64 b now)
  | Add { load; now } ->
      frame buf ~payload_len:17 (fun b ->
          put_u8 b tag_add;
          put_f64 b load;
          put_f64 b now)
  | Subtract { load; now } ->
      frame buf ~payload_len:17 (fun b ->
          put_u8 b tag_subtract;
          put_f64 b load;
          put_f64 b now)
  | Log_decision { criterion; admit } ->
      frame buf ~payload_len:4 (fun b ->
          put_u8 b tag_log_decision;
          put_u16 b criterion;
          put_u8 b (if admit then 1 else 0))
  | Stats -> frame buf ~payload_len:1 (fun b -> put_u8 b tag_stats)
  | Shutdown -> frame buf ~payload_len:1 (fun b -> put_u8 b tag_shutdown)

let encode_response buf r =
  match r with
  | Ok_reply -> frame buf ~payload_len:1 (fun b -> put_u8 b tag_ok)
  | Decision { admit; admissible; flows } ->
      frame buf ~payload_len:10 (fun b ->
          put_u8 b tag_decision;
          put_u8 b (if admit then 1 else 0);
          put_u32 b admissible;
          put_u32 b flows)
  | Stats_reply { flows; admitted_load; capacity; requests; decisions;
                  admits; updates } ->
      frame buf ~payload_len:53 (fun b ->
          put_u8 b tag_stats_reply;
          put_u32 b flows;
          put_f64 b admitted_load;
          put_f64 b capacity;
          put_i64 b requests;
          put_i64 b decisions;
          put_i64 b admits;
          put_i64 b updates)
  | Error_reply { code; message } ->
      let msg_len = min (String.length message) 0xFFFF in
      frame buf ~payload_len:(4 + msg_len) (fun b ->
          put_u8 b tag_error;
          put_u8 b code;
          put_string b message)

(* ---------- little-endian scalar readers ---------- *)

(* The readers below are only reached once the whole payload is known to
   be available (the frame-level decoder checks the prefix first), so
   in-payload bounds are enforced by construction: each tag's body has a
   fixed size that [check_len] matched against the payload length. *)

let get_u8 b ~pos = Char.code (Bytes.unsafe_get b pos)
let get_u16 b ~pos = get_u8 b ~pos lor (get_u8 b ~pos:(pos + 1) lsl 8)

let get_u32 b ~pos =
  (* frame fields never legitimately exceed 2^31; decode as unsigned *)
  Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF

let get_i64 b ~pos = Int64.to_int (Bytes.get_int64_le b pos)
let get_f64 b ~pos = Int64.float_of_bits (Bytes.get_int64_le b pos)

(* ---------- frame-level decoding ---------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let frame_header bytes ~pos ~avail =
  if avail < 4 then Error (Truncated { expected = 4; got = avail })
  else begin
    let payload_len = get_u32 bytes ~pos in
    if payload_len > max_frame_payload then
      Error (Bad_frame (Printf.sprintf "payload length %d exceeds %d"
                          payload_len max_frame_payload))
    else if payload_len = 0 then Error (Bad_frame "empty payload")
    else if avail < 4 + payload_len then
      Error (Truncated { expected = 4 + payload_len; got = avail })
    else Ok payload_len
  end

let check_len ~tag ~expect ~got =
  if got = expect then Ok ()
  else
    Error
      (Bad_frame
         (Printf.sprintf "tag 0x%02x payload is %d bytes, expected %d" tag got
            expect))

let decode_request bytes ~pos ~avail =
  let* len = frame_header bytes ~pos ~avail in
  let p = pos + 4 in
  let tag = get_u8 bytes ~pos:p in
  let* msg =
    if tag = tag_initialize then
      let* () = check_len ~tag ~expect:9 ~got:len in
      Ok (Initialize { capacity = get_f64 bytes ~pos:(p + 1) })
    else if tag = tag_decide then
      let* () = check_len ~tag ~expect:19 ~got:len in
      Ok
        (Decide
           { criterion = get_u16 bytes ~pos:(p + 1);
             load = get_f64 bytes ~pos:(p + 3);
             now = get_f64 bytes ~pos:(p + 11) })
    else if tag = tag_add then
      let* () = check_len ~tag ~expect:17 ~got:len in
      Ok (Add { load = get_f64 bytes ~pos:(p + 1);
                now = get_f64 bytes ~pos:(p + 9) })
    else if tag = tag_subtract then
      let* () = check_len ~tag ~expect:17 ~got:len in
      Ok (Subtract { load = get_f64 bytes ~pos:(p + 1);
                     now = get_f64 bytes ~pos:(p + 9) })
    else if tag = tag_log_decision then
      let* () = check_len ~tag ~expect:4 ~got:len in
      Ok
        (Log_decision
           { criterion = get_u16 bytes ~pos:(p + 1);
             admit = get_u8 bytes ~pos:(p + 3) <> 0 })
    else if tag = tag_stats then
      let* () = check_len ~tag ~expect:1 ~got:len in
      Ok Stats
    else if tag = tag_shutdown then
      let* () = check_len ~tag ~expect:1 ~got:len in
      Ok Shutdown
    else Error (Bad_tag tag)
  in
  Ok (msg, 4 + len)

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
