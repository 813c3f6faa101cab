(** Fluid buffer fed by a piecewise-constant aggregate: drains at the
    link rate, fills when the load exceeds it, loses fluid when full.

    Used to quantify the §2 claim that the bufferless overflow
    probability upper-bounds the loss of a buffered link. *)

type t

val create : capacity:float -> size:float -> t
(** [capacity] is the drain (link) rate; [size] the buffer size (fluid
    units).  @raise Invalid_argument on non-positive values. *)

val level : t -> float

val copy : t -> t
(** Independent deep copy (for simulator snapshot/restore). *)

val feed : t -> duration:float -> load:float -> unit
(** Advance time by [duration] with a constant input rate [load].
    Handles the fill-to-full and drain-to-empty transitions within the
    segment exactly. *)

val reset_statistics : t -> unit
(** Zero the time/loss/volume counters while keeping the current buffer
    level — used to discard the warm-up transient. *)

val total_time : t -> float
val loss_time : t -> float
(** Time spent losing fluid (buffer full while load > capacity).
    Each loss episode (a maximal run of consecutive lossy segments)
    counts once into the [buffer_loss_episodes_total] telemetry
    counter. *)

val loss_time_fraction : t -> float
val lost_volume : t -> float
(** Total fluid lost. *)

val offered_volume : t -> float
