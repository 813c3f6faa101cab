(** Deterministic open-loop load generator.

    Drives a {!Client.t} with a Poisson flow-arrival process: each
    arrival draws a load (lognormal, given mean/std), picks a criterion
    round-robin-free (uniform from a derived stream), asks [Decide],
    records the verdict with [Log_decision], and on admit [Add]s the
    flow and schedules its departure ([Subtract]) after an exponential
    holding time.  All randomness comes from streams derived from
    [seed], and time is {e virtual} — the same seed and request count
    produce the same request bytes on any transport, which is what the
    determinism cram locks down.

    Only [Decide] and the closing [Stats] are round trips
    ({!Client.rpc}); [Subtract], [Log_decision] and [Add] are posted
    ({!Client.post}) and travel with the next round trip, so one arrival
    costs one round trip.  The engine sees the same requests in the same
    order either way. *)

type workload = {
  seed : int;
  requests : int;        (** number of [Decide] requests to issue *)
  arrival_mean : float;  (** mean virtual inter-arrival time *)
  hold_mean : float;     (** mean virtual flow holding time *)
  load_mean : float;     (** per-flow offered load, lognormal mean *)
  load_std : float;      (** per-flow offered load, lognormal std *)
  n_criteria : int;      (** criteria to spread Decide requests over *)
}

type summary = {
  sent : int;            (** total requests sent, all types *)
  decides : int;
  admitted : int;
  rejected : int;
  departures : int;
  final_stats : Protocol.response;  (** the closing [Stats] reply *)
}

val run : Client.t -> workload -> summary
(** @raise Invalid_argument on non-positive workload parameters.
    @raise Failure if the server answers a request with an error
    (["Loadgen: <request> failed: server error <code> (<message>)"]; a
    posted request's error surfaces at the next round trip). *)

val record : Client.t -> workload -> Bytes.t array
(** {!run}, keeping what it sends: the request bytes of each round trip
    (the posted frames, then the round trip's own), in order.  Replayed
    through [Server.answer] on a fresh engine of the same configuration,
    they give the same replies. *)

val print_summary : out_channel -> summary -> unit
(** Deterministic textual summary (no wall-clock numbers). *)
