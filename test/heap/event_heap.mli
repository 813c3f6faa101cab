(** Binary min-heap keyed by event time — the reference event queue
    the calendar queue is held against.
    Ties are broken by insertion order (FIFO), which keeps runs
    deterministic.

    The heap is a structure-of-arrays over unboxed floats and immediate
    ints, so [push] and [min_time]/[min_payload]/[drop_min] never
    allocate (beyond amortized capacity doubling).  Payloads are
    native ints; callers needing richer events pack them into an int
    (tag in the low bits, identifier above — see [Continuous_load]). *)

type t

val create : unit -> t
val size : t -> int
val is_empty : t -> bool

val copy : t -> t
(** Independent deep copy of the pending events, including the sequence
    counter (so tie-breaking in the copy replays identically). *)

val push : t -> time:float -> int -> unit
(** @raise Invalid_argument on NaN time. *)

val min_time : t -> float
(** Time of the earliest event, read in place.
    @raise Invalid_argument on an empty heap. *)

val min_payload : t -> int
(** Payload of the earliest event, read in place.
    @raise Invalid_argument on an empty heap. *)

val drop_min : t -> unit
(** Remove the earliest event (the one [min_time]/[min_payload] read).
    @raise Invalid_argument on an empty heap. *)
