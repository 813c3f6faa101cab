(** Rate traces: uniformly sampled bandwidth processes, e.g. per-frame
    sizes of an encoded video expressed as rates.  Traces feed
    {!Trace_source} (playback as a fluid source) and the RCBR
    renegotiation transform ({!Renegotiate}). *)

type t = private {
  dt : float;           (** sample spacing (time units per sample) *)
  rates : float array;  (** rate during [i*dt, (i+1)*dt); do not mutate *)
  mean : float;         (** time-average rate *)
  variance : float;
      (** population variance over samples (samples are equally weighted
          in time, so this is the time-average variance) *)
}
(** Built only by {!create} (and the functions below that derive a
    trace), which compute [mean] and [variance] once, so reading them
    costs nothing. *)

val create : dt:float -> float array -> t
(** @raise Invalid_argument if [dt <= 0], the trace is empty, or any rate
    is negative. *)

val duration : t -> float
val length : t -> int
val mean : t -> float
val variance : t -> float

val rate_at : t -> float -> float
(** Rate at a given time offset; wraps around cyclically (traces are
    looped, as is standard when driving long simulations from a finite
    trace). *)

val autocorrelation : t -> max_lag:int -> float array
(** Sample autocorrelation of the rate sequence (FFT-based). *)

val scale_to_mean : t -> mean:float -> t
(** Linearly rescale rates so the trace mean equals [mean]. *)

val to_csv : t -> string
(** Two-column CSV: time, rate (header included). *)

val of_csv : string -> t
(** Parse the format produced by {!to_csv}.
    @raise Failure on malformed input. *)
