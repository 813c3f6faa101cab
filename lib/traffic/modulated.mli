(** Non-stationary traffic: wrap any source with a piecewise-constant
    modulation schedule that scales its emitted rate over time.

    The paper's stationarity assumption holds only "within the memory
    time-scale" (§2); this wrapper lets the experiments inject level
    shifts and test how estimator memory trades adaptation speed against
    smoothing. *)

type schedule = Source.schedule
(** A validated schedule: switch times and factors in unboxed arrays.
    Build it once and share it between every flow it modulates. *)

val schedule : (float * float) array -> schedule
(** [schedule [| (t_i, factor_i); ... |]]: from time [t_i] (inclusive)
    the source's rate is multiplied by [factor_i]; before the first
    entry, the first factor holds.
    @raise Invalid_argument on an empty array, times that do not
    increase, or a factor that is not positive. *)

val factor_at : schedule -> float -> float
(** The multiplier in force at a given time. *)

val create : start:float -> schedule -> Source.t -> Source.t
(** [create ~start schedule inner] emits [factor(t) * rate(inner)] for a
    flow whose clock begins at [start] (must match the inner source's
    start).  Rate-change epochs are the union of the inner source's
    epochs and the schedule's switch times after [start]; the modulated
    source fires its inner one, which it owns. *)
