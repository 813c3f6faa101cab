type transport = Inproc of Server.session | Socket of Unix.file_descr

exception Post_failed of Protocol.request * Protocol.response

let () =
  Printexc.register_printer (function
    | Post_failed (req, Protocol.Error_reply { code; message }) ->
        Some
          (Printf.sprintf "Client: posted %s failed: server error %d (%s)"
             (Protocol.request_name req) code message)
    | Post_failed (req, _) ->
        Some
          (Printf.sprintf "Client: unexpected reply to posted %s"
             (Protocol.request_name req))
    | _ -> None)

(* Well under a socket buffer.  A batch is written only once every reply
   to the one before has been read, so its bytes always fit the kernel's
   buffer and the write returns; the client then reads while the daemon
   writes, and neither can block the other. *)
let batch_budget = 16384

type t = {
  transport : transport;
  peer : string;
  batch : Buffer.t;  (* unsent frames: the posted ones, then an rpc's own *)
  replies : Buffer.t;  (* in-process: the session layer's reply frames *)
  mutable out : Bytes.t;  (* the batch as sent, kept until its replies are read *)
  mutable wire : Bytes.t;  (* reply frames *)
  mutable posted : int;  (* frames in [batch] from [post] *)
  mutable requests : int;
  mutable batches : int;
  mutable closed : bool;
}

let make transport peer ~wire =
  Server.conn_opened ();
  { transport; peer; batch = Buffer.create 256; replies = Buffer.create 256;
    out = Bytes.create 256; wire = Bytes.create wire; posted = 0;
    requests = 0; batches = 0; closed = false }

let inproc engine = make (Inproc (Server.session engine)) "inproc" ~wire:256

let connect_unix ?(retries = 50) ~path () =
  let rec attempt k =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) when k > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.1;
        attempt (k - 1)
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  match attempt retries with
  | fd ->
      (* room for the largest legal reply frame *)
      make (Socket fd) path ~wire:(4 + Protocol.max_frame_payload)
  | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) ->
      failwith (Printf.sprintf "Client: cannot reach daemon at %s" path)

let protocol_failure e =
  failwith ("Client: protocol error: " ^ Protocol.error_to_string e)

let peer_closed () = failwith "Client: peer closed mid-response"

let write_all fd bytes len =
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

(* More reply bytes, read behind the [fill] already in [t.wire]. *)
let more t ~fill =
  match t.transport with
  | Inproc _ -> peer_closed ()
  | Socket fd -> (
      match Unix.read fd t.wire fill (Bytes.length t.wire - fill) with
      | 0 -> peer_closed ()
      | n -> n
      | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
          peer_closed ())

(* The [i]-th request of the [len]-byte batch in [t.out]. *)
let nth_request t ~len i =
  let rec go pos k =
    match Protocol.decode_request t.out ~pos ~avail:(len - pos) with
    | Ok (req, _) when k = i -> req
    | Ok (_, consumed) -> go (pos + consumed) (k + 1)
    | Error e -> protocol_failure e
  in
  go 0 0

(* Send the batch and read its [frames] replies in order, the first
   [t.posted] of them to posted frames.  A posted frame whose reply is
   not [Ok_reply] is raised only after the whole batch has been read, so
   the stream stays in step.  Returns the last reply. *)
let round_trip t ~frames =
  let len = Buffer.length t.batch in
  if Bytes.length t.out < len then
    t.out <- Bytes.create (max len (2 * Bytes.length t.out));
  Buffer.blit t.batch 0 t.out 0 len;
  Buffer.clear t.batch;
  let posted = t.posted in
  t.posted <- 0;
  t.requests <- t.requests + frames;
  t.batches <- t.batches + 1;
  let fill =
    match t.transport with
    | Inproc session ->
        Buffer.clear t.replies;
        ignore (Server.answer session t.out ~pos:0 ~avail:len t.replies);
        let n = Buffer.length t.replies in
        if Bytes.length t.wire < n then t.wire <- Bytes.create n;
        Buffer.blit t.replies 0 t.wire 0 n;
        n
    | Socket fd -> (
        match write_all fd t.out len with
        | () -> 0
        | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
            peer_closed ())
  in
  let pos = ref 0 and fill = ref fill and i = ref 0 in
  let last = ref Protocol.Ok_reply and failed = ref None in
  while !i < frames do
    match Protocol.decode_response t.wire ~pos:!pos ~avail:(!fill - !pos) with
    | Ok (resp, consumed) ->
        pos := !pos + consumed;
        (match resp with
        | Protocol.Ok_reply -> ()
        | _ ->
            if !i < posted && Option.is_none !failed then
              failed := Some (!i, resp));
        last := resp;
        incr i
    | Error (Protocol.Truncated _) ->
        let keep = !fill - !pos in
        Bytes.blit t.wire !pos t.wire 0 keep;
        pos := 0;
        fill := keep + more t ~fill:keep
    | Error e -> protocol_failure e
  done;
  if !pos <> !fill then failwith "Client: trailing bytes after response frame";
  match !failed with
  | Some (i, reply) -> raise (Post_failed (nth_request t ~len i, reply))
  | None -> !last

let rpc t req =
  if t.closed then failwith "Client: connection is closed";
  Protocol.encode_request t.batch req;
  round_trip t ~frames:(t.posted + 1)

let post t req =
  (match req with
  | Protocol.Initialize _ | Protocol.Add _ | Protocol.Subtract _
  | Protocol.Log_decision _ -> ()
  | Protocol.Decide _ | Protocol.Stats | Protocol.Shutdown ->
      invalid_arg ("Client.post: " ^ Protocol.request_name req ^ " needs rpc"));
  if t.closed then failwith "Client: connection is closed";
  let before = Buffer.length t.batch in
  Protocol.encode_request t.batch req;
  if Buffer.length t.batch > batch_budget then begin
    Buffer.truncate t.batch before;
    ignore (round_trip t ~frames:t.posted);
    Protocol.encode_request t.batch req
  end;
  t.posted <- t.posted + 1

let close t =
  if not t.closed then begin
    t.closed <- true;
    Buffer.clear t.batch;
    t.posted <- 0;
    (match t.transport with
    | Inproc _ -> ()
    | Socket fd -> ( try Unix.close fd with Unix.Unix_error _ -> ()));
    Server.conn_closed ~peer:t.peer ~requests:t.requests ~batches:t.batches
  end
