(* Structure-of-arrays binary min-heap with immediate-int payloads.

   The event queue sits on the innermost simulation loop, so its layout
   is chosen to make push/pop allocation-free: times live in a
   [Float.Array.t] (flat unboxed doubles), sequence numbers and payloads
   in [int array]s.  A payload is whatever the caller packs into a
   native int — the simulator encodes its event constructors and flow
   slots there (see [Continuous_load]).  Compared to the previous boxed
   [entry] record array this also removes the [Obj.magic] dummy slot:
   there is nothing in a vacated slot for the GC to see. *)

type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { times = Float.Array.create 0;
    seqs = [||];
    payloads = [||];
    size = 0;
    next_seq = 0 }

let size t = t.size
let is_empty t = t.size = 0

(* Capacity is trimmed to [size]: a snapshot that is cloned many times
   should not carry the parent's amortized-doubling slack. *)
let copy t =
  let times = Float.Array.create t.size in
  Float.Array.blit t.times 0 times 0 t.size;
  { times;
    seqs = Array.sub t.seqs 0 t.size;
    payloads = Array.sub t.payloads 0 t.size;
    size = t.size;
    next_seq = t.next_seq }

(* Earlier time wins; equal times fall back to insertion order (FIFO),
   which keeps runs deterministic. *)
let[@inline] before t i j =
  let ti = Float.Array.unsafe_get t.times i
  and tj = Float.Array.unsafe_get t.times j in
  ti < tj || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let[@inline] swap t i j =
  let tmp_t = Float.Array.unsafe_get t.times i in
  Float.Array.unsafe_set t.times i (Float.Array.unsafe_get t.times j);
  Float.Array.unsafe_set t.times j tmp_t;
  let tmp_s = Array.unsafe_get t.seqs i in
  Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs j);
  Array.unsafe_set t.seqs j tmp_s;
  let tmp_p = Array.unsafe_get t.payloads i in
  Array.unsafe_set t.payloads i (Array.unsafe_get t.payloads j);
  Array.unsafe_set t.payloads j tmp_p

let grow t =
  let cap = Array.length t.seqs in
  begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let times = Float.Array.create ncap in
    Float.Array.blit t.times 0 times 0 t.size;
    let seqs = Array.make ncap 0 in
    Array.blit t.seqs 0 seqs 0 t.size;
    let payloads = Array.make ncap 0 in
    Array.blit t.payloads 0 payloads 0 t.size;
    t.times <- times;
    t.seqs <- seqs;
    t.payloads <- payloads
  end

let sift_up t i0 =
  let i = ref i0 in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t !i parent then begin
      swap t !i parent;
      i := parent
    end
    else continue := false
  done

(* The sift-up loop lives in [sift_up] (taking only ints) so [push]
   itself inlines into callers — the [time] argument is then stored
   straight into the unboxed array instead of being boxed at a call
   boundary. *)
let[@inline] push t ~time payload =
  if Float.is_nan time then invalid_arg "Event_heap.push: NaN time";
  if t.size = Array.length t.seqs then grow t;
  let i = t.size in
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i t.next_seq;
  Array.unsafe_set t.payloads i payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && before t l !smallest then smallest := l;
    if r < t.size && before t r !smallest then smallest := r;
    if !smallest <> !i then begin
      swap t !i !smallest;
      i := !smallest
    end
    else continue := false
  done

(* Zero-allocation accessors for the hot loop: callers check
   [is_empty], read the minimum in place, then [drop_min]. *)

let[@inline] min_time t =
  if t.size = 0 then invalid_arg "Event_heap.min_time: empty heap";
  Float.Array.unsafe_get t.times 0

let[@inline] min_payload t =
  if t.size = 0 then invalid_arg "Event_heap.min_payload: empty heap";
  Array.unsafe_get t.payloads 0

let[@inline] drop_min t =
  if t.size = 0 then invalid_arg "Event_heap.drop_min: empty heap";
  t.size <- t.size - 1;
  if t.size > 0 then begin
    let last = t.size in
    Float.Array.unsafe_set t.times 0 (Float.Array.unsafe_get t.times last);
    Array.unsafe_set t.seqs 0 (Array.unsafe_get t.seqs last);
    Array.unsafe_set t.payloads 0 (Array.unsafe_get t.payloads last);
    sift_down t
  end
