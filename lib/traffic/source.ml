(* A source is plain data: one variant over the models, each a record of
   the model's parameters, its RNG and its mutable state.  The
   rate/next-change pair every kind shares lives in its own all-float
   [State] record, so firing a change epoch writes unboxed doubles in
   place; per-kind floats that change on every step (the OU level) sit
   in all-float records for the same reason. *)

module Rng = Mbac_stats.Rng
module Sample = Mbac_stats.Sample

module State = struct
  type t = { mutable rate : float; mutable next_change : float }

  let[@inline] set st ~rate ~next_change =
    st.rate <- rate;
    st.next_change <- next_change
end

(* [ou] shares its first three labels with [rcbr]; every use below has
   its type fixed by the kind it is read from. *)
type ou = { mu : float; sigma : float; t_c : float; dt : float }
type rcbr = { mu : float; sigma : float; t_c : float }
type onoff = { peak : float; mean_on : float; mean_off : float }

(* Switch times and factors, unboxed; validated once by [schedule]. *)
type schedule = { times : Float.Array.t; factors : Float.Array.t }

(* The OU chain's one-step constants and its un-clipped level. *)
type ou_level = { a : float; s : float; mutable x : float }

type t = { st : State.t; kind : kind }

and kind =
  | Rcbr of { p : rcbr; rng : Rng.t }
  | Onoff of { p : onoff; rng : Rng.t; mutable on : bool }
  | Ou of { p : ou; rng : Rng.t; level : ou_level }
  | Playback of { trace : Trace.t; mutable idx : int }
  | Modulated of { schedule : schedule; inner : t }
  | Custom of {
      rng : Rng.t;
      mutable phase : int;
      step : Rng.t -> int -> State.t -> now:float -> int;
    }

(* Inlined, so the two floats are stored without being boxed first. *)
let[@inline] make kind ~rate ~next_change =
  { st = { State.rate; next_change }; kind }

let[@inline] rate t = t.st.State.rate
let[@inline] next_change t = t.st.State.next_change

(* ---------- schedules ---------- *)

let schedule s =
  if Array.length s = 0 then invalid_arg "Modulated: empty schedule";
  Array.iteri
    (fun i (t, f) ->
      if not (f > 0.0) then invalid_arg "Modulated: non-positive factor";
      if i > 0 && not (t > fst s.(i - 1)) then
        invalid_arg "Modulated: schedule times must be increasing")
    s;
  { times = Float.Array.map_from_array fst s;
    factors = Float.Array.map_from_array snd s }

(* The last entry with t_i <= time, or -1 before the first entry.  The
   factor in force is that entry's (the first entry's before it), and
   the next switch is the entry after it. *)
let switch_index s time =
  let times = s.times in
  if time < Float.Array.get times 0 then -1
  else begin
    let lo = ref 0 and hi = ref (Float.Array.length times - 1) in
    while !hi - !lo > 0 do
      let mid = (!lo + !hi + 1) / 2 in
      if Float.Array.get times mid <= time then lo := mid else hi := mid - 1
    done;
    !lo
  end

let factor_at s time = Float.Array.get s.factors (max 0 (switch_index s time))

(* A modulated source emits the factor in force times its inner rate,
   until its inner source's next change or the next switch time,
   whichever comes first. *)
let modulate s inner st ~now =
  let i = switch_index s now in
  let switch =
    if i + 1 < Float.Array.length s.times then Float.Array.get s.times (i + 1)
    else infinity
  in
  State.set st
    ~rate:(Float.Array.get s.factors (max 0 i) *. rate inner)
    ~next_change:(Float.min (next_change inner) switch)

(* ---------- trace playback ---------- *)

(* Run-length playback: the next change is at the next sample whose rate
   differs, so piecewise-CBR traces cost one event per renegotiation
   rather than one per sample.  The run length caps at the trace length
   to terminate on constant traces. *)
let run_length trace i =
  let rates = trace.Trace.rates in
  let n = Array.length rates in
  let r = rates.(i) in
  let k = ref 1 in
  while !k < n && rates.((i + !k) mod n) = r do
    incr k
  done;
  !k

(* ---------- firing ---------- *)

(* Every seeded stream depends on each branch's draw order (an RCBR
   interval before its rate; an on/off sojourn after the flip).  The
   samplers are called directly so they inline here and a
   renegotiation draws without boxing. *)
let rec step t ~now =
  let st = t.st in
  match t.kind with
  | Rcbr { p; rng } ->
      let next_change = now +. Sample.exponential rng ~mean:p.t_c in
      let rate =
        Sample.gaussian_truncated_nonneg rng ~mu:p.mu ~sigma:p.sigma
      in
      State.set st ~rate ~next_change
  | Onoff o ->
      o.on <- not o.on;
      let p = o.p in
      let next_change =
        now
        +. Sample.exponential o.rng
             ~mean:(if o.on then p.mean_on else p.mean_off)
      in
      State.set st ~rate:(if o.on then p.peak else 0.0) ~next_change
  | Ou { p; rng; level } ->
      level.x <-
        p.mu +. (level.a *. (level.x -. p.mu))
        +. Sample.gaussian rng ~mu:0.0 ~sigma:level.s;
      State.set st ~rate:(Float.max 0.0 level.x) ~next_change:(now +. p.dt)
  | Playback pb ->
      let trace = pb.trace in
      pb.idx <- (pb.idx + run_length trace pb.idx) mod Trace.length trace;
      let run = run_length trace pb.idx in
      State.set st ~rate:trace.Trace.rates.(pb.idx)
        ~next_change:(now +. (float_of_int run *. trace.Trace.dt))
  | Modulated { schedule; inner } ->
      if next_change inner <= now +. 1e-12 then fire inner ~now;
      modulate schedule inner st ~now
  | Custom c -> c.phase <- c.step c.rng c.phase st ~now

and fire t ~now =
  assert (now >= next_change t -. 1e-9);
  step t ~now;
  assert (next_change t > now)

(* Draw-for-draw identical to firing one change at a time at its own
   epoch: each step sees [now] = the epoch it fires. *)
let fire_until t ~upto =
  while next_change t <= upto do
    let now = next_change t in
    step t ~now;
    assert (next_change t > now)
  done

(* A field copy: the parameters, the trace and the schedule are
   immutable and shared; the state is duplicated and every RNG rebound
   to [rng]. *)
let rec copy t rng =
  let kind =
    match t.kind with
    | Rcbr r -> Rcbr { r with rng }
    | Onoff o -> Onoff { o with rng }
    | Ou o -> Ou { o with rng; level = { o.level with x = o.level.x } }
    | Playback pb -> Playback { pb with idx = pb.idx }
    | Modulated m -> Modulated { m with inner = copy m.inner rng }
    | Custom c -> Custom { c with rng }
  in
  make kind ~rate:(rate t) ~next_change:(next_change t)

(* ---------- the models ---------- *)

let rcbr rng (p : rcbr) ~start =
  if p.mu < 0.0 then invalid_arg "Rcbr.create: requires mu >= 0";
  if p.sigma < 0.0 then invalid_arg "Rcbr.create: requires sigma >= 0";
  if p.t_c <= 0.0 then invalid_arg "Rcbr.create: requires t_c > 0";
  (* the first renegotiation is an ordinary step at [start] *)
  let t = make (Rcbr { p; rng }) ~rate:0.0 ~next_change:start in
  step t ~now:start;
  t

let onoff rng p ~start =
  if p.peak <= 0.0 || p.mean_on <= 0.0 || p.mean_off <= 0.0 then
    invalid_arg "Onoff: all parameters must be positive";
  let on =
    Sample.bernoulli rng ~p:(p.mean_on /. (p.mean_on +. p.mean_off))
  in
  let sojourn =
    Sample.exponential rng ~mean:(if on then p.mean_on else p.mean_off)
  in
  make (Onoff { p; rng; on })
    ~rate:(if on then p.peak else 0.0)
    ~next_change:(start +. sojourn)

(* Exact OU transition over one step: x' = mu + a (x - mu) + s Z with
   a = exp(-dt/t_c), s = sigma sqrt(1 - a^2).  The level is kept
   un-clipped so the clipping does not distort the dynamics; only the
   emitted rate is clipped at 0. *)
let ou rng (p : ou) ~start =
  if p.sigma < 0.0 then invalid_arg "Ou_source.create: requires sigma >= 0";
  if p.t_c <= 0.0 then invalid_arg "Ou_source.create: requires t_c > 0";
  if p.dt <= 0.0 then invalid_arg "Ou_source.create: requires dt > 0";
  let a = exp (-.p.dt /. p.t_c) in
  let s = p.sigma *. sqrt (1.0 -. (a *. a)) in
  let x = Sample.gaussian rng ~mu:p.mu ~sigma:p.sigma in
  make (Ou { p; rng; level = { a; s; x } })
    ~rate:(Float.max 0.0 x) ~next_change:(start +. p.dt)

let playback trace ~offset ~start =
  let dt = trace.Trace.dt in
  (* the sample playing at the source-local clock [offset] *)
  let idx = int_of_float (floor (offset /. dt)) mod Trace.length trace in
  (* first boundary: the rest of the current sample period plus the rest
     of the current run *)
  let remaining = dt -. Float.rem offset dt in
  let remaining = if remaining <= 0.0 then dt else remaining in
  let first_boundary =
    remaining +. (float_of_int (run_length trace idx - 1) *. dt)
  in
  make (Playback { trace; idx })
    ~rate:trace.Trace.rates.(idx)
    ~next_change:(start +. first_boundary)

let modulated ~start schedule inner =
  let t = make (Modulated { schedule; inner }) ~rate:0.0 ~next_change:0.0 in
  modulate schedule inner t.st ~now:start;
  t

let custom rng ~phase ~rate ~next_change step =
  make (Custom { rng; phase; step }) ~rate ~next_change
