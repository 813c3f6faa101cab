(* The event-queue seam: one signature both priority-queue
   implementations satisfy, so tests and benchmarks can run the same
   suite (and the same differential workload) against each.

   [Continuous_load] deliberately does NOT go through this seam: on a
   non-flambda compiler a functor parameter is an opaque call boundary,
   which would box the [time] float on every push and re-box the
   minimum on every read — the very allocations the hot path was
   rebuilt to avoid.  The simulator names [Calendar_queue] directly;
   this module exists for differential testing. *)

(* The operations both queues implement. *)
module type Ops = sig
  type t

  val create : unit -> t
  val size : t -> int
  val is_empty : t -> bool

  val copy : t -> t
  (** Independent deep copy, including the tie-breaking sequence
      counter. *)

  val push : t -> time:float -> int -> unit
  (** @raise Invalid_argument on NaN time. *)

  val min_time : t -> float
  (** @raise Invalid_argument when empty. *)

  val min_payload : t -> int
  (** @raise Invalid_argument when empty. *)

  val drop_min : t -> unit
  (** @raise Invalid_argument when empty. *)
end

module type S = sig
  include Ops

  val peek_time : t -> float option
  (** [None] when empty. *)

  val pop : t -> (float * int) option
  (** Remove and return the earliest event; [None] when empty. *)
end

(* [peek_time] and [pop], spelled once over the primitives for both
   queues. *)
module With_pop (Q : Ops) : S with type t = Q.t = struct
  include Q

  let peek_time q = if is_empty q then None else Some (min_time q)

  let pop q =
    if is_empty q then None
    else begin
      let time = min_time q and payload = min_payload q in
      drop_min q;
      Some (time, payload)
    end
end

module Heap = With_pop (Event_heap)
module Calendar = With_pop (Mbac_sim.Calendar_queue)
