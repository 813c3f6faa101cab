(* The event-queue seam: one signature both priority-queue
   implementations satisfy, so tests and benchmarks can run the same
   suite (and the same differential workload) against each.

   [Continuous_load] deliberately does NOT go through this seam: on a
   non-flambda compiler a functor parameter is an opaque call boundary,
   which would box the [time] float on every push and re-box the
   minimum on every read — the very allocations the hot path was
   rebuilt to avoid.  The simulator names [Calendar_queue] directly;
   this module exists for differential testing. *)

module type S = sig
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

  val peek_time : t -> float option
  val pop : t -> (float * int) option

  val drain_min : t -> f:(int -> unit) -> unit
  (** Pop every event sharing the current minimum timestamp in FIFO
      order. *)

  val clear : t -> unit
end

module Heap : S = Event_heap
module Calendar : S = Mbac_sim.Calendar_queue
