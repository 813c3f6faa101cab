(** What an admission controller is allowed to see: a cross-section of the
    flows in the system at one instant.  Per-flow rates enter only through
    their sum and sum of squares, which is exactly what the paper's
    estimators (eqns (7)/(23)) need.

    An observation belongs to the system that produces it (a simulated
    link, the serving engine), which keeps one and refreshes its fields
    in place, with nothing allocated, whenever its state changes.  A
    consumer (an estimator, a controller) reads it when it is handed
    one and keeps nothing of it; code that wants to keep a cross-section
    past the next refresh must {!copy} it. *)

type t = {
  mutable now : float;      (** current time *)
  mutable n : float;        (** number of flows currently in the system
                                (always an exact integer; stored as a
                                float so the record has a flat unboxed
                                layout — see [count]) *)
  mutable sum_rate : float; (** aggregate bandwidth, sum of per-flow rates *)
  mutable sum_sq : float;   (** sum of squared per-flow rates *)
}
(** An owner writes the fields directly: [n] is the flow count as a
    float, and both sums are zero when [n] is. *)

val make : now:float -> n:int -> sum_rate:float -> sum_sq:float -> t
(** A fresh observation.
    @raise Invalid_argument on negative [n] or inconsistent sums. *)

val copy : t -> t
(** A fresh observation with the same fields. *)

val count : t -> int
(** [n] as the int it always is. *)
