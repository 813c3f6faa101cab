(* xoshiro256++, its four 64-bit state words kept in a 32-byte [Bytes.t].

   The obvious representation — four mutable [int64] fields — boxes on
   every store and on every [bits64] result (~15 minor words per draw
   without flambda), and the generator sits on the simulation's
   innermost loop.  Reading and writing the words through the unsafe
   64-bit bytes primitives instead keeps every intermediate of a step
   an unboxed [int64] in registers: one load per word, the xoshiro
   arithmetic, one store per word, nothing allocated.  The hot consumer
   [float] needs only the top 53 bits, which fit a native int exactly,
   so no [Int64] value is ever boxed on that path; only [bits64], [int]
   and [split] hand one out.

   Not a [Bigarray]: its data lives in a malloc'd custom block, which
   every new generator — one [derive] per splitting trial — and every
   [copy] would pay for in allocation and finalisation.  A [Bytes.t] is
   an ordinary heap block, and [copy] is one [Bytes.copy]. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* SplitMix64: used only to diffuse seeds into the xoshiro state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_state64 init =
  let state = ref init in
  let t = Bytes.create 32 in
  for w = 0 to 3 do
    set64 t (8 * w) (splitmix64 state)
  done;
  t

let create ~seed = of_state64 (Int64.of_int seed)

(* FNV-1a over every byte of the string: unlike [Hashtbl.hash], which
   both folds to 30 bits and bounds the portion of the input it reads,
   this keeps the full 64-bit state and never truncates, so distinct
   tags give distinct stream seeds (up to 64-bit birthday collisions). *)
let fnv1a64 s =
  let open Int64 in
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c -> h := mul (logxor !h (of_int (Char.code c))) 0x100000001B3L)
    s;
  !h

let derive ~seed ~tag =
  (* Mix the tag hash with the seed through one SplitMix64 round so that
     (seed, tag) pairs map to well-separated 64-bit init states. *)
  let state = ref (Int64.of_int seed) in
  let seed_mixed = splitmix64 state in
  of_state64 (Int64.logxor (fnv1a64 tag) seed_mixed)

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step: advance the state, return the output word. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 in
  let s2 = get64 t 16 and s3 = get64 t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let s2 = logxor s2 s0 and s3 = logxor s3 s1 in
  set64 t 0 (logxor s0 s3);
  set64 t 8 (logxor s1 s2);
  set64 t 16 (logxor s2 (shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

let bits64 t = next t

let split t =
  let seed = Int64.to_int (bits64 t) in
  create ~seed

(* Top 53 bits -> uniform double in [0,1).  The 53-bit quantity fits a
   native int, so this is a plain [float_of_int] — the same value as
   [Int64.to_float (x >> 11)], without its C call. *)
let[@inline] float t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (next t) 11))
  *. 0x1.0p-53

(* Cold continuation so the common case of [float_pos] stays a
   non-recursive, inlinable straight line. *)
let rec float_pos_retry t =
  let u = float t in
  if u > 0.0 then u else float_pos_retry t

let[@inline] float_pos t =
  let u = float t in
  if u > 0.0 then u else float_pos_retry t

let int t n =
  if n <= 0 then invalid_arg "Rng.int: requires n > 0";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let limit = Int64.sub (Int64.div Int64.max_int n64) 1L in
  let bound = Int64.mul limit n64 in
  let rec draw () =
    let x = Int64.shift_right_logical (bits64 t) 1 in
    if x < bound || bound <= 0L then Int64.to_int (Int64.rem x n64) else draw ()
  in
  draw ()
