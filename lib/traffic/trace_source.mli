(** Play a {!Trace.t} back as a fluid {!Source.t}.

    Each flow starts at an independent uniformly-random offset into the
    trace and loops cyclically — the standard way to build many
    statistically identical flows from one trace (used for the paper's
    Starwars experiments, Figs 11–12). *)

val create :
  Mbac_stats.Rng.t -> Trace.t -> start:float -> Source.t
(** Playback at the trace's native sample spacing, from a uniformly
    random offset.  The trace is shared, not copied: a flow holds it
    and its playback cursor. *)

val create_at_offset : Trace.t -> offset:float -> start:float -> Source.t
(** Deterministic variant for tests: playback beginning at a given trace
    offset. *)
