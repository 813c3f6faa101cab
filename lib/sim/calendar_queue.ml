(* Calendar queue: a timing wheel whose bucket width tracks the
   observed event spacing (Brown, CACM 1988), over the same unboxed
   int-payload/float-time encoding as the reference heap in [test/heap].

   Entries live in a two-array pool — times in a [Float.Array.t], and
   (seq, payload, next-link) packed at a 4-word stride in one int array
   — and are linked into per-bucket chains of a power-of-two wheel.
   The packed layout is deliberate: at large pending counts the popped
   entry is cold, and one meta line plus one time line is half the
   cache misses of four parallel arrays.  An entry at time [tm] belongs
   to absolute bucket [floor (tm * inv_width)]; the wheel covers
   buckets [cur_b, cur_b + nb) and maps bucket [b] to slot
   [b land mask].  Anything at or beyond the horizon goes to a single
   overflow chain, migrated in bulk when the wheel catches up.

   Ordering is by (time, seq): chains are unordered (push links at the
   head), and the minimum is found by scanning the current slot's
   chain, so FIFO tie-breaking falls out of the seq comparison rather
   than list discipline.  Two invariants make the slot scan sufficient:

   - every wheel entry has clamped bucket in [cur_b, cur_b + nb), and
     slot [cur_b land mask] holds only bucket-[cur_b] entries (cur_b
     only advances past empty slots; pushes clamp to >= cur_b), so the
     earliest wheel entry is always in the current slot;
   - overflow entries have bucket >= cur_b + nb, hence time (strictly,
     (time, seq)) no earlier than any wheel entry — except transiently
     when cur_b advanced after the overflow push, which the minimum
     search detects by comparing against the overflow minimum and
     repairs by migrating.

   The found minimum is cached (entry, chain predecessor, slot) so the
   min_time / min_payload / drop_min triple costs one scan; pushes
   update or patch the cache in O(1).  Nothing on the push/pop path
   allocates: pool growth doubles amortized, and wheel resizes (sized
   by pending count, width from a block-averaged inter-pop spacing
   estimate) allocate only the new slot-head array and stop once the
   population is stationary. *)

type t = {
  (* entry pool: times.(e) plus meta.(4e..4e+2) = seq, payload, next;
     the next field doubles as the free list *)
  mutable times : Float.Array.t;
  mutable meta : int array;
  mutable used : int;
  mutable free_head : int;
  (* wheel *)
  mutable heads : int array;
  mutable nb : int;
  mutable mask : int;
  mutable cur_b : int;
  mutable wheel_size : int;
  (* far-future overflow chain *)
  mutable ovf_head : int;
  mutable ovf_size : int;
  mutable ovf_min_seq : int;
  (* cached minimum: entry index, its chain predecessor (-1 = chain
     head), and its slot; min_entry = -1 means no cache *)
  mutable min_entry : int;
  mutable min_prev : int;
  mutable min_slot : int;
  mutable size : int;
  mutable next_seq : int;
  mutable pops_since_adjust : int;
  (* pops since the last wheel rebuild; a width recalibration may only
     fire after [size] further pops, bounding relink work to O(1)
     amortized per pop no matter how the spacing estimate moves *)
  mutable pops_since_resize : int;
  (* unboxed mutable floats (a mixed record would box them on every
     store): width, 1/width, smoothed gap estimate, last pop time,
     overflow minimum time, gap-block checkpoint time *)
  fstate : Float.Array.t;
}

let f_width = 0
let f_inv = 1
let f_gap = 2
let f_last_pop = 3
let f_ovf_min = 4
let f_ckpt = 5
let n_fstate = 6

(* meta word offsets within an entry's 4-word group (the 4th word is
   padding so a group never spans more than one cache line) *)
let m_seq = 0
let m_pay = 1
let m_next = 2

let[@inline] seq_of t e = Array.unsafe_get t.meta ((e lsl 2) + m_seq)
let[@inline] pay_of t e = Array.unsafe_get t.meta ((e lsl 2) + m_pay)
let[@inline] next_of t e = Array.unsafe_get t.meta ((e lsl 2) + m_next)
let[@inline] set_seq t e v = Array.unsafe_set t.meta ((e lsl 2) + m_seq) v
let[@inline] set_pay t e v = Array.unsafe_set t.meta ((e lsl 2) + m_pay) v
let[@inline] set_next t e v = Array.unsafe_set t.meta ((e lsl 2) + m_next) v

let min_nb = 16
let recalibrate_every = 4096

let create () =
  let fstate = Float.Array.create n_fstate in
  Float.Array.set fstate f_width 1.0;
  Float.Array.set fstate f_inv 1.0;
  Float.Array.set fstate f_gap Float.nan;
  Float.Array.set fstate f_last_pop Float.nan;
  Float.Array.set fstate f_ovf_min Float.infinity;
  Float.Array.set fstate f_ckpt Float.nan;
  { times = Float.Array.create 0;
    meta = [||];
    used = 0;
    free_head = -1;
    heads = Array.make min_nb (-1);
    nb = min_nb;
    mask = min_nb - 1;
    cur_b = 0;
    wheel_size = 0;
    ovf_head = -1;
    ovf_size = 0;
    ovf_min_seq = max_int;
    min_entry = -1;
    min_prev = -1;
    min_slot = -1;
    size = 0;
    next_seq = 0;
    pops_since_adjust = 0;
    pops_since_resize = 0;
    fstate }

let size t = t.size
let is_empty t = t.size = 0

(* Absolute bucket of a timestamp.  Clamped so that pathological
   width/time ratios degrade to a fat bucket or the overflow chain
   instead of overflowing the int.  Consistency is all that matters:
   the same monotone map is used by push, migration, and resize. *)
let[@inline] bucket t tm =
  let q = Float.floor (tm *. Float.Array.unsafe_get t.fstate f_inv) in
  if q >= 1e15 then 1_000_000_000_000_000
  else if q <= -1e15 then -1_000_000_000_000_000
  else int_of_float q

let next_pow2 n =
  let r = ref min_nb in
  while !r < n do r := !r * 2 done;
  !r

let grow_pool t =
  let cap = Array.length t.meta lsr 2 in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let times = Float.Array.create ncap in
  Float.Array.blit t.times 0 times 0 t.used;
  let meta = Array.make (ncap lsl 2) (-1) in
  Array.blit t.meta 0 meta 0 (t.used lsl 2);
  t.times <- times;
  t.meta <- meta

(* Width target as a multiple of the observed inter-pop spacing.  The
   best multiplier is a function of where the working set lives:
   cache-resident populations want wide buckets (~2 events each —
   chain scanning is cheap, empty-slot advance is the overhead), while
   DRAM-resident populations want ~1 event per bucket (every extra
   chain entry is a cold cache miss on the pop path, worth more than
   the larger overflow fraction it avoids — overflow migration is rare
   and bulk).  The threshold is deterministic in [size], so identical
   op sequences still produce identical structures. *)
let[@inline] width_mult t = if t.size >= 1 lsl 18 then 1.0 else 2.0

(* Rebuild the wheel with [nb'] buckets and a freshly chosen width.
   Width preference: the spacing estimate scaled by [width_mult];
   before any pops have calibrated the spacing estimate, pending span
   / pending count; else keep the old width.  Only the slot-head array
   is allocated — entries are relinked in place.  Relinking never
   reorders pops: chains are unordered and the (time, seq) comparison
   is width-independent. *)
let resize t nb' =
  let fs = t.fstate in
  t.pops_since_resize <- 0;
  if t.size = 0 then begin
    t.heads <- Array.make nb' (-1);
    t.nb <- nb';
    t.mask <- nb' - 1;
    t.ovf_head <- -1;
    t.ovf_size <- 0;
    t.ovf_min_seq <- max_int;
    Float.Array.set fs f_ovf_min Float.infinity;
    t.min_entry <- -1
  end
  else begin
    (* pass 1: span of pending times (old structure intact).  The
       min/max accumulators live in a scratch [Float.Array] — float
       refs would box two words on every store, charging a
       million-entry scan hundreds of kilowords of minor allocation. *)
    let mnmx = Float.Array.create 2 in
    Float.Array.set mnmx 0 Float.infinity;
    Float.Array.set mnmx 1 Float.neg_infinity;
    let scan_chain head =
      let e = ref head in
      while !e >= 0 do
        let tm = Float.Array.unsafe_get t.times !e in
        if tm < Float.Array.unsafe_get mnmx 0 then Float.Array.unsafe_set mnmx 0 tm;
        if tm > Float.Array.unsafe_get mnmx 1 then Float.Array.unsafe_set mnmx 1 tm;
        e := next_of t !e
      done
    in
    for s = 0 to t.nb - 1 do scan_chain (Array.unsafe_get t.heads s) done;
    scan_chain t.ovf_head;
    let mn = Float.Array.get mnmx 0 and mx = Float.Array.get mnmx 1 in
    let g = Float.Array.get fs f_gap in
    let w =
      if Float.is_finite g && g > 0. then width_mult t *. g
      else if t.size > 1 && mx > mn then (mx -. mn) /. float_of_int t.size
      else Float.Array.get fs f_width
    in
    let w = if Float.is_finite w && w > 0. then w else Float.Array.get fs f_width in
    let w = if Float.is_finite w && w > 0. then w else 1.0 in
    Float.Array.set fs f_width w;
    Float.Array.set fs f_inv (1. /. w);
    let old_heads = t.heads and old_nb = t.nb in
    let old_ovf = t.ovf_head in
    let heads = Array.make nb' (-1) in
    t.heads <- heads;
    t.nb <- nb';
    t.mask <- nb' - 1;
    t.cur_b <- bucket t mn;
    t.wheel_size <- 0;
    t.ovf_head <- -1;
    t.ovf_size <- 0;
    t.ovf_min_seq <- max_int;
    Float.Array.set fs f_ovf_min Float.infinity;
    let horizon_b = t.cur_b + nb' in
    let relink_chain head =
      let e = ref head in
      while !e >= 0 do
        let nx = next_of t !e in
        let tm = Float.Array.unsafe_get t.times !e in
        let b = bucket t tm in
        if b < horizon_b then begin
          let b = if b < t.cur_b then t.cur_b else b in
          let s = b land t.mask in
          set_next t !e (Array.unsafe_get heads s);
          Array.unsafe_set heads s !e;
          t.wheel_size <- t.wheel_size + 1
        end
        else begin
          set_next t !e t.ovf_head;
          t.ovf_head <- !e;
          t.ovf_size <- t.ovf_size + 1;
          let sq = seq_of t !e in
          let omin = Float.Array.unsafe_get fs f_ovf_min in
          if tm < omin || (tm = omin && sq < t.ovf_min_seq) then begin
            Float.Array.unsafe_set fs f_ovf_min tm;
            t.ovf_min_seq <- sq
          end
        end;
        e := nx
      done
    in
    for s = 0 to old_nb - 1 do relink_chain (Array.unsafe_get old_heads s) done;
    relink_chain old_ovf;
    t.min_entry <- -1
  end

(* Move every overflow entry that now fits the wheel window into it.
   Callers only invoke this while the min cache is invalid. *)
let migrate_overflow t =
  let fs = t.fstate in
  let e = ref t.ovf_head in
  t.ovf_head <- -1;
  t.ovf_size <- 0;
  t.ovf_min_seq <- max_int;
  Float.Array.set fs f_ovf_min Float.infinity;
  let horizon_b = t.cur_b + t.nb in
  while !e >= 0 do
    let nx = next_of t !e in
    let tm = Float.Array.unsafe_get t.times !e in
    let b = bucket t tm in
    if b < horizon_b then begin
      let b = if b < t.cur_b then t.cur_b else b in
      let s = b land t.mask in
      set_next t !e (Array.unsafe_get t.heads s);
      Array.unsafe_set t.heads s !e;
      t.wheel_size <- t.wheel_size + 1
    end
    else begin
      set_next t !e t.ovf_head;
      t.ovf_head <- !e;
      t.ovf_size <- t.ovf_size + 1;
      let sq = seq_of t !e in
      let omin = Float.Array.unsafe_get fs f_ovf_min in
      if tm < omin || (tm = omin && sq < t.ovf_min_seq) then begin
        Float.Array.unsafe_set fs f_ovf_min tm;
        t.ovf_min_seq <- sq
      end
    end;
    e := nx
  done

(* Locate the (time, seq)-minimum and cache it.  Loop shape: jump to
   the overflow chain if the wheel is drained, advance the current
   bucket over empty slots (bounded by nb — every wheel entry sits in
   the live window), scan the current slot's chain, then accept the
   candidate unless a stale overflow entry precedes it, in which case
   migrate and rescan.  Progress: the comparison only fires when the
   overflow minimum's bucket is <= the candidate's (buckets are
   monotone in time), so each migration moves it into the wheel. *)
let ensure_min t =
  if t.min_entry < 0 then begin
    let continue = ref true in
    while !continue do
      if t.wheel_size = 0 then begin
        let ob = bucket t (Float.Array.get t.fstate f_ovf_min) in
        if ob > t.cur_b then t.cur_b <- ob;
        migrate_overflow t;
        assert (t.wheel_size > 0)
      end;
      while Array.unsafe_get t.heads (t.cur_b land t.mask) < 0 do
        t.cur_b <- t.cur_b + 1
      done;
      let s = t.cur_b land t.mask in
      let best = ref (Array.unsafe_get t.heads s) in
      let best_prev = ref (-1) in
      let prev = ref !best in
      let e = ref (next_of t !best) in
      while !e >= 0 do
        let te = Float.Array.unsafe_get t.times !e
        and tb = Float.Array.unsafe_get t.times !best in
        if te < tb || (te = tb && seq_of t !e < seq_of t !best) then begin
          best := !e;
          best_prev := !prev
        end;
        prev := !e;
        e := next_of t !e
      done;
      let accept =
        t.ovf_size = 0
        ||
        let om = Float.Array.unsafe_get t.fstate f_ovf_min
        and tb = Float.Array.unsafe_get t.times !best in
        not (om < tb || (om = tb && t.ovf_min_seq < seq_of t !best))
      in
      if accept then begin
        t.min_entry <- !best;
        t.min_prev <- !best_prev;
        t.min_slot <- s;
        continue := false
      end
      else migrate_overflow t
    done
  end

(* Like the reference heap's [push], the loops live in callees taking
   only ints so [push] itself inlines and the [time] float is stored
   unboxed. *)
let[@inline] push t ~time payload =
  if Float.is_nan time then invalid_arg "Calendar_queue.push: NaN time";
  let e =
    if t.free_head >= 0 then begin
      let e = t.free_head in
      t.free_head <- next_of t e;
      e
    end
    else begin
      if t.used lsl 2 = Array.length t.meta then grow_pool t;
      let e = t.used in
      t.used <- e + 1;
      e
    end
  in
  Float.Array.unsafe_set t.times e time;
  let sq = t.next_seq in
  set_seq t e sq;
  set_pay t e payload;
  t.next_seq <- sq + 1;
  t.size <- t.size + 1;
  let b = bucket t time in
  if b - t.cur_b >= t.nb then begin
    (* beyond the horizon: overflow chain *)
    set_next t e t.ovf_head;
    t.ovf_head <- e;
    t.ovf_size <- t.ovf_size + 1;
    let omin = Float.Array.unsafe_get t.fstate f_ovf_min in
    if time < omin || (time = omin && sq < t.ovf_min_seq) then begin
      Float.Array.unsafe_set t.fstate f_ovf_min time;
      t.ovf_min_seq <- sq
    end
    (* an overflow entry can never precede a cached wheel minimum:
       its bucket (hence time) is at or beyond the horizon *)
  end
  else begin
    let b = if b < t.cur_b then t.cur_b else b in
    let s = b land t.mask in
    set_next t e (Array.unsafe_get t.heads s);
    Array.unsafe_set t.heads s e;
    t.wheel_size <- t.wheel_size + 1;
    let m = t.min_entry in
    if m >= 0 then begin
      let tm = Float.Array.unsafe_get t.times m in
      if time < tm || (time = tm && sq < seq_of t m) then begin
        t.min_entry <- e;
        t.min_prev <- -1;
        t.min_slot <- s
      end
      else if s = t.min_slot && t.min_prev < 0 then
        (* the cached minimum was this chain's head; the new entry is
           now linked in front of it *)
        t.min_prev <- e
    end
  end;
  if t.size > 2 * t.nb then resize t (next_pow2 t.size)

let[@inline] min_time t =
  if t.size = 0 then invalid_arg "Calendar_queue.min_time: empty queue";
  ensure_min t;
  Float.Array.unsafe_get t.times t.min_entry

let[@inline] min_payload t =
  if t.size = 0 then invalid_arg "Calendar_queue.min_payload: empty queue";
  ensure_min t;
  pay_of t t.min_entry

(* Width recalibration, checkpointed every [recalibrate_every] pops.

   The spacing estimate is a block average: (front advance since the
   last checkpoint) / (pops per block), lightly smoothed.  A per-pop
   gap EWMA — even a slow one — is the wrong estimator here: pop gaps
   under a bursty schedule are strongly autocorrelated (runs of
   near-ties inside a slot, then a jump), so the EWMA's local mean
   wandered by x2.4 under the stationary hold workload and crossed any
   affordable trigger band, each crossing relinking the full
   million-entry population.  The block mean over 4096 pops measures
   exactly the quantity the width must track — the average per-pop
   front advance — with ~1.6% relative noise for i.i.d. gaps, so the
   50% band is far outside noise.

   Two further guards keep rebuilds cheap and deterministic: the check
   is purely op-sequence-driven (no wall clock), and a width-driven
   rebuild may fire only after [size] pops since the last rebuild of
   any kind, making relink work O(1) amortized per pop even under an
   adversarial spacing trajectory. *)
let maybe_adjust t =
  t.pops_since_adjust <- t.pops_since_adjust + 1;
  if t.nb > min_nb && t.size * 8 < t.nb then begin
    t.pops_since_adjust <- 0;
    resize t (next_pow2 (max 1 t.size))
  end
  else if t.pops_since_adjust >= recalibrate_every then begin
    t.pops_since_adjust <- 0;
    t.pops_since_resize <- t.pops_since_resize + recalibrate_every;
    let fs = t.fstate in
    let now = Float.Array.get fs f_last_pop in
    let ck = Float.Array.get fs f_ckpt in
    Float.Array.set fs f_ckpt now;
    if Float.is_finite ck && now > ck then begin
      let block = (now -. ck) /. float_of_int recalibrate_every in
      let g = Float.Array.get fs f_gap in
      let g' =
        if Float.is_finite g then (0.75 *. g) +. (0.25 *. block) else block
      in
      Float.Array.set fs f_gap g';
      let ideal = width_mult t *. g' in
      let w = Float.Array.get fs f_width in
      if
        (w > 1.5 *. ideal || 1.5 *. w < ideal)
        && t.pops_since_resize >= t.size
      then resize t t.nb
    end
  end

let[@inline] drop_min t =
  if t.size = 0 then invalid_arg "Calendar_queue.drop_min: empty queue";
  ensure_min t;
  let e = t.min_entry in
  let nx = next_of t e in
  if t.min_prev < 0 then Array.unsafe_set t.heads t.min_slot nx
  else set_next t t.min_prev nx;
  t.wheel_size <- t.wheel_size - 1;
  t.size <- t.size - 1;
  set_next t e t.free_head;
  t.free_head <- e;
  t.min_entry <- -1;
  (* the pop time feeds the block-average spacing estimate read at the
     next recalibration checkpoint *)
  Float.Array.unsafe_set t.fstate f_last_pop (Float.Array.unsafe_get t.times e);
  maybe_adjust t

let peek_time t =
  if t.size = 0 then None
  else begin
    ensure_min t;
    Some (Float.Array.unsafe_get t.times t.min_entry)
  end

let pop t =
  if t.size = 0 then None
  else begin
    ensure_min t;
    let time = Float.Array.unsafe_get t.times t.min_entry in
    let payload = pay_of t t.min_entry in
    drop_min t;
    Some (time, payload)
  end

(* No [ref] flag: the loop state lives in registers, so a singleton
   batch — the overwhelmingly common case under continuous clocks —
   costs zero allocation on top of the pop itself. *)
let drain_min t ~f =
  if t.size > 0 then begin
    let t0 = min_time t in
    f (min_payload t);
    drop_min t;
    while t.size > 0 && min_time t = t0 do
      f (min_payload t);
      drop_min t
    done
  end

(* Compacting deep copy: entries are renumbered 0..size-1 as the
   chains are walked, so the copy's pool has no free-list slack.
   Chain order is irrelevant (the min scan compares (time, seq)), and
   seqs are preserved verbatim, so the copy pops identically. *)
let copy t =
  let n = t.size in
  let times = Float.Array.create n in
  let meta = Array.make (n lsl 2) (-1) in
  let heads = Array.make t.nb (-1) in
  let idx = ref 0 in
  let copy_entry e link_head =
    let i = !idx in
    incr idx;
    Float.Array.unsafe_set times i (Float.Array.unsafe_get t.times e);
    Array.unsafe_set meta ((i lsl 2) + m_seq) (seq_of t e);
    Array.unsafe_set meta ((i lsl 2) + m_pay) (pay_of t e);
    Array.unsafe_set meta ((i lsl 2) + m_next) link_head;
    i
  in
  for s = 0 to t.nb - 1 do
    let e = ref (Array.unsafe_get t.heads s) in
    while !e >= 0 do
      Array.unsafe_set heads s (copy_entry !e (Array.unsafe_get heads s));
      e := next_of t !e
    done
  done;
  let ovf_head = ref (-1) in
  let e = ref t.ovf_head in
  while !e >= 0 do
    ovf_head := copy_entry !e !ovf_head;
    e := next_of t !e
  done;
  let fstate = Float.Array.create n_fstate in
  Float.Array.blit t.fstate 0 fstate 0 n_fstate;
  { times;
    meta;
    used = n;
    free_head = -1;
    heads;
    nb = t.nb;
    mask = t.mask;
    cur_b = t.cur_b;
    wheel_size = t.wheel_size;
    ovf_head = !ovf_head;
    ovf_size = t.ovf_size;
    ovf_min_seq = t.ovf_min_seq;
    min_entry = -1;
    min_prev = -1;
    min_slot = -1;
    size = n;
    next_seq = t.next_seq;
    pops_since_adjust = t.pops_since_adjust;
    pops_since_resize = t.pops_since_resize;
    fstate }

let clear t =
  t.size <- 0;
  t.wheel_size <- 0;
  t.used <- 0;
  t.free_head <- -1;
  Array.fill t.heads 0 t.nb (-1);
  t.ovf_head <- -1;
  t.ovf_size <- 0;
  t.ovf_min_seq <- max_int;
  t.min_entry <- -1;
  t.min_prev <- -1;
  t.min_slot <- -1;
  t.pops_since_adjust <- 0;
  t.pops_since_resize <- 0;
  Float.Array.set t.fstate f_ovf_min Float.infinity;
  Float.Array.set t.fstate f_last_pop Float.nan;
  Float.Array.set t.fstate f_gap Float.nan;
  Float.Array.set t.fstate f_ckpt Float.nan
