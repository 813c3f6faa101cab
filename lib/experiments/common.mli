(** Shared harness for the paper-reproduction experiments.

    Every experiment runs in one of two profiles: [Quick] (reduced sample
    budgets; minutes for the whole suite — the default for
    [bench/main.exe]) and [Full] (paper-grade §5.2 stopping criteria; can
    take hours for the simulation-heavy figures). *)

type profile = Quick | Full

val src : Logs.Src.t
(** The [Logs] source for sweep/section progress ("mbac.experiments").
    Progress is logged at [info] level to stderr, so result output on
    stdout stays byte-identical at every verbosity and [--quiet]
    silences sweeps. *)

module Log : Logs.LOG
(** Convenience log on {!src}. *)

val profile_of_string : string -> profile
(** "quick" | "full" (case-insensitive).  @raise Invalid_argument otherwise. *)

val seed : int ref
(** Global experiment seed (default 20260706); each experiment derives
    its streams deterministically from it. *)

val rng_for : string -> Mbac_stats.Rng.t
(** Deterministic RNG derived from [!seed] and an experiment tag via
    {!Mbac_stats.Rng.derive}.  Streams depend only on [(seed, tag)], so
    the same cell sees the same randomness no matter how the sweep is
    scheduled across domains. *)

val jobs : int ref
(** Worker-pool width for simulation sweeps (default
    {!Mbac_sim.Parallel.default_jobs}; set by [--jobs]).  Results are
    bit-identical for every value — [1] reproduces the serial path. *)

val par_map : ('a -> 'b) -> 'a list -> 'b list
(** [par_map f cells] evaluates the independent sweep cells [f cell]
    on the {!Mbac_sim.Parallel} pool of [!jobs] workers (clamped to the
    cell count and {!Mbac_sim.Parallel.domain_cap}; the log line reports
    the effective width), returning results in submission order.  Each
    cell must derive its randomness from {!rng_for} with a cell-unique
    tag and must not touch shared mutable state (formatters, [csv_dir]
    output, …) — formatting belongs in the caller, after the pool
    returns. *)

val sim_config :
  profile:profile -> p:Mbac.Params.t -> t_m:float ->
  Mbac_sim.Continuous_load.config
(** Continuous-load simulator configuration for a system: batch length
    2 max(T~_h, T_m, T_c) (the paper's sampling period), warmup 5 batches,
    and profile-dependent event caps. *)

val rcbr_factory :
  p:Mbac.Params.t ->
  Mbac_stats.Rng.t -> start:float -> Mbac_traffic.Source.t
(** RCBR source factory matching the Params (the paper's §5.2 sources). *)

val ce_controller :
  capacity:float -> t_m:float -> alpha_ce:float -> Mbac.Controller.t
(** The certainty-equivalent MBAC used by the sweeps: EWMA estimator
    with memory [t_m], Gaussian criterion at [alpha_ce]. *)

val run_mbac :
  profile:profile ->
  p:Mbac.Params.t ->
  t_m:float ->
  alpha_ce:float ->
  tag:string ->
  Mbac_sim.Continuous_load.result
(** Simulate the certainty-equivalent MBAC with memory [t_m] at target
    [alpha_ce] on RCBR traffic defined by [p]. *)

val run_mbac_rare :
  profile:profile ->
  p:Mbac.Params.t ->
  t_m:float ->
  alpha_ce:float ->
  tag:string ->
  Mbac_sim.Splitting.result
(** Deep-tail variant of {!run_mbac}: estimate the same system's
    overflow probability with the multilevel-splitting engine
    ({!Mbac_sim.Splitting}) instead of a direct run.  Call cells
    sequentially — the engine parallelizes its own clone trials over
    [!jobs] workers (bit-identical for every value). *)

(** {1 Report formatting} *)

val csv_dir : string option ref
(** When set (e.g. by [bin/experiments --csv-dir DIR]), every table is
    additionally written to [DIR/<section-id>[-k].csv] for plotting. *)

val section : Format.formatter -> string -> string -> unit
(** [section fmt id title] prints the experiment banner (and selects the
    CSV base name for subsequent tables). *)

val table :
  Format.formatter -> header:string list -> rows:string list list -> unit
(** Fixed-width table; column widths derived from content.  Also dumped
    as CSV when {!csv_dir} is set. *)

val fnum : float -> string
(** Compact scientific formatting for probabilities ("1.34e-03"). *)

val fnum3 : float -> string
(** 3-significant-digit general formatting. *)
