(* One outbox per (src, dst) shard pair.  Float fields live in
   [Float.Array]s so stores never box; int fields are plain arrays.
   Boxes only grow (by doubling) and are reset to length 0 at each
   delivery, so the steady state allocates nothing. *)

type box = {
  mutable b_len : int;
  mutable b_time : Float.Array.t;
  mutable b_rate : Float.Array.t;
  mutable b_tend : Float.Array.t;
  mutable b_kind : int array;
  mutable b_link : int array;
  mutable b_hop : int array;
  mutable b_route : int array;
  mutable b_seq : int array;
  mutable b_islot : int array;
  mutable b_igen : int array;
}

type t = {
  shards : int;
  boxes : box array; (* src * shards + dst *)
  (* inbox: the last delivery, in (src shard, send order) *)
  mutable i_time : Float.Array.t;
  mutable i_rate : Float.Array.t;
  mutable i_tend : Float.Array.t;
  mutable i_kind : int array;
  mutable i_link : int array;
  mutable i_hop : int array;
  mutable i_route : int array;
  mutable i_seq : int array;
  mutable i_islot : int array;
  mutable i_igen : int array;
  mutable delivered : int;
}

let make_box cap =
  { b_len = 0;
    b_time = Float.Array.create cap;
    b_rate = Float.Array.create cap;
    b_tend = Float.Array.create cap;
    b_kind = Array.make cap 0;
    b_link = Array.make cap 0;
    b_hop = Array.make cap 0;
    b_route = Array.make cap 0;
    b_seq = Array.make cap 0;
    b_islot = Array.make cap 0;
    b_igen = Array.make cap 0 }

let create ~shards =
  if shards < 1 || shards > 256 then
    invalid_arg "Exchange.create: shards outside 1..256";
  { shards;
    boxes = Array.init (shards * shards) (fun _ -> make_box 16);
    i_time = Float.Array.create 16;
    i_rate = Float.Array.create 16;
    i_tend = Float.Array.create 16;
    i_kind = Array.make 16 0;
    i_link = Array.make 16 0;
    i_hop = Array.make 16 0;
    i_route = Array.make 16 0;
    i_seq = Array.make 16 0;
    i_islot = Array.make 16 0;
    i_igen = Array.make 16 0;
    delivered = 0 }

let grow_floats old len =
  let n = Float.Array.create (2 * len) in
  Float.Array.blit old 0 n 0 len;
  n

let grow_ints old len =
  let n = Array.make (2 * len) 0 in
  Array.blit old 0 n 0 len;
  n

let grow_box b =
  let len = Array.length b.b_kind in
  b.b_time <- grow_floats b.b_time len;
  b.b_rate <- grow_floats b.b_rate len;
  b.b_tend <- grow_floats b.b_tend len;
  b.b_kind <- grow_ints b.b_kind len;
  b.b_link <- grow_ints b.b_link len;
  b.b_hop <- grow_ints b.b_hop len;
  b.b_route <- grow_ints b.b_route len;
  b.b_seq <- grow_ints b.b_seq len;
  b.b_islot <- grow_ints b.b_islot len;
  b.b_igen <- grow_ints b.b_igen len

let[@inline] send t ~src ~dst ~time ~kind ~link ~hop ~route ~seq ~islot
    ~igen ~rate ~t_end =
  let b = t.boxes.((src * t.shards) + dst) in
  let i = b.b_len in
  if i = Array.length b.b_kind then grow_box b;
  Float.Array.set b.b_time i time;
  Float.Array.set b.b_rate i rate;
  Float.Array.set b.b_tend i t_end;
  b.b_kind.(i) <- kind;
  b.b_link.(i) <- link;
  b.b_hop.(i) <- hop;
  b.b_route.(i) <- route;
  b.b_seq.(i) <- seq;
  b.b_islot.(i) <- islot;
  b.b_igen.(i) <- igen;
  b.b_len <- i + 1

let grow_inbox t m =
  let len = Array.length t.i_kind in
  if len < m then begin
    let n = ref (2 * len) in
    while !n < m do
      n := 2 * !n
    done;
    let n = !n in
    t.i_time <- Float.Array.create n;
    t.i_rate <- Float.Array.create n;
    t.i_tend <- Float.Array.create n;
    t.i_kind <- Array.make n 0;
    t.i_link <- Array.make n 0;
    t.i_hop <- Array.make n 0;
    t.i_route <- Array.make n 0;
    t.i_seq <- Array.make n 0;
    t.i_islot <- Array.make n 0;
    t.i_igen <- Array.make n 0
  end

(* Concatenate the outboxes for [dst] in (src shard, send order).  The
   copy is a plain loop, not [Array.blit]: a blit is a C call (ten per
   outbox) and, into a major-heap [int array], runs [caml_modify] per
   element on OCaml 5.1.  Outboxes hold a few messages per window,
   where the loop is 2-12x cheaper per message (PERFORMANCE.md). *)
let deliver t ~dst =
  let shards = t.shards in
  let m = ref 0 in
  for src = 0 to shards - 1 do
    m := !m + t.boxes.((src * shards) + dst).b_len
  done;
  let m = !m in
  grow_inbox t m;
  let i_time = t.i_time and i_rate = t.i_rate and i_tend = t.i_tend in
  let i_kind = t.i_kind and i_link = t.i_link and i_hop = t.i_hop in
  let i_route = t.i_route and i_seq = t.i_seq in
  let i_islot = t.i_islot and i_igen = t.i_igen in
  let o = ref 0 in
  for src = 0 to shards - 1 do
    let b = t.boxes.((src * shards) + dst) in
    let base = !o in
    for j = 0 to b.b_len - 1 do
      let i = base + j in
      Float.Array.set i_time i (Float.Array.get b.b_time j);
      Float.Array.set i_rate i (Float.Array.get b.b_rate j);
      Float.Array.set i_tend i (Float.Array.get b.b_tend j);
      i_kind.(i) <- b.b_kind.(j);
      i_link.(i) <- b.b_link.(j);
      i_hop.(i) <- b.b_hop.(j);
      i_route.(i) <- b.b_route.(j);
      i_seq.(i) <- b.b_seq.(j);
      i_islot.(i) <- b.b_islot.(j);
      i_igen.(i) <- b.b_igen.(j)
    done;
    o := base + b.b_len;
    b.b_len <- 0
  done;
  t.delivered <- t.delivered + m;
  m

let[@inline] in_time t i = Float.Array.get t.i_time i
let[@inline] in_kind t i = t.i_kind.(i)
let[@inline] in_link t i = t.i_link.(i)
let[@inline] in_hop t i = t.i_hop.(i)
let[@inline] in_route t i = t.i_route.(i)
let[@inline] in_seq t i = t.i_seq.(i)
let[@inline] in_islot t i = t.i_islot.(i)
let[@inline] in_igen t i = t.i_igen.(i)
let[@inline] in_rate t i = Float.Array.get t.i_rate i
let[@inline] in_tend t i = Float.Array.get t.i_tend i
let delivered_total t = t.delivered
