(** Calendar queue (timing-wheel/calendar hybrid) keyed by event time —
    the simulator's O(1) event queue.  Ties are broken by insertion
    order (FIFO), exactly like the reference binary heap in [test/heap]:
    the two structures produce identical pop sequences for identical
    push sequences.

    Structure: entries live in a structure-of-arrays pool (unboxed
    float times, immediate-int seqs/payloads) linked into bucket chains
    of a power-of-two wheel.  Bucket width auto-resizes from the
    observed inter-pop spacing (EWMA); events beyond the wheel horizon
    go to an overflow chain and are migrated in bulk when the wheel
    catches up.  [push], [min_time]/[min_payload]/[drop_min] allocate
    nothing in steady state (pool growth and wheel resizes are
    amortized and absent once the pending population is stationary).

    Payloads are native ints; callers needing richer events pack them
    into an int (tag in the low bits, identifier above — see
    [Continuous_load]). *)

type t

val create : unit -> t
val size : t -> int
val is_empty : t -> bool

val copy : t -> t
(** Independent deep copy of the pending events, including the sequence
    counter (so tie-breaking in the copy replays identically).  The
    copy's pool is compacted to exactly [size] entries: a snapshot that
    is cloned many times does not carry the parent's amortized-doubling
    slack. *)

val push : t -> time:float -> int -> unit
(** @raise Invalid_argument on NaN time. *)

val min_time : t -> float
(** Time of the earliest event, read in place.
    @raise Invalid_argument on an empty queue. *)

val min_payload : t -> int
(** Payload of the earliest event, read in place.
    @raise Invalid_argument on an empty queue. *)

val drop_min : t -> unit
(** Remove the earliest event (the one [min_time]/[min_payload] read).
    @raise Invalid_argument on an empty queue. *)

val peek_time : t -> float option

val pop : t -> (float * int) option
(** Remove and return the earliest event.  Convenience wrapper over
    [min_time]/[min_payload]/[drop_min]; allocates the result pair. *)

val drain_min : t -> f:(int -> unit) -> unit
(** Pop every event sharing the current minimum timestamp, in FIFO
    order, calling [f payload] for each.  Events that [f] itself pushes
    at that exact timestamp are drained too (they carry later sequence
    numbers, so they come last).  No-op on an empty queue. *)

val clear : t -> unit
(** Drop every pending event.  The sequence counter is preserved, so
    tie-breaking against any surviving external ordering stays
    consistent with the reference heap's [clear]. *)
