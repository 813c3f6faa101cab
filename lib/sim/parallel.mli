(** Deterministic multicore replication engine.

    Monte-Carlo sweeps are embarrassingly parallel: every cell
    (replication, parameter point) is an independent simulation.  This
    module fans a list of such tasks out over a fixed-size pool of
    OCaml 5 domains and returns the results {e in submission order}.

    {2 Determinism contract}

    The pool adds no randomness of its own.  Provided each task derives
    its generator up front from the root seed and a task-unique tag
    ({!Mbac_stats.Rng.derive} / [Common.rng_for]) and touches no shared
    mutable state, the result list is bit-identical for every [jobs]
    value: [~jobs:1] runs the tasks serially in the calling domain and
    defines the reference output, and any [jobs > 1] schedule reproduces
    it exactly: workers claim tasks one at a time in index order, and
    results are merged by task index, never by completion order.
    Output formatting must happen after the pool returns, in the
    calling domain.

    {2 Pool sizing}

    The pool never spawns more than {!domain_cap} domains, whatever
    [jobs] asks for: OCaml 5 minor collections synchronize {e every}
    running domain, so oversubscribing cores turns each minor GC into an
    OS-scheduler wait and makes the pool a net loss — [--jobs] beyond
    the cap still changes nothing about the results (that is the
    determinism contract), it just stops costing anything.  Worker
    domains start with a 2M-word minor heap to cut the frequency of
    those global pauses; the submitting domain's GC settings are never
    modified.

    [MBAC_DOMAIN_CAP], when set, is the ceiling on pool width (default:
    [min 8 (Domain.recommended_domain_count ())]; setting it above the
    core count deliberately oversubscribes, which the test suite uses
    to exercise real multi-domain schedules on narrow machines).

    {2 Telemetry}

    Every task runs against a fresh {!Mbac_telemetry.Shard} (on the
    serial path too); at the join the task shards are merged into the
    submitting domain's shard {e in submission order}, so aggregated
    metrics and traces are byte-identical for every [jobs] value.
    Executed tasks are counted into [parallel_tasks_total] (incremented
    once at the join, in the submitting shard; suppressed by
    [~count_tasks:false]) and, when profiling is
    enabled, each records its wall-clock latency under the
    [parallel.task] span.  Tasks skipped by first-failure cancellation
    contribute no telemetry and are counted in
    [parallel_tasks_skipped_total]. *)

val default_jobs : unit -> int
(** {!domain_cap} — the widest pool worth spawning on this machine. *)

val domain_cap : unit -> int
(** Ceiling on the pool width, applied to explicit [jobs] requests as
    well as to {!default_jobs}: [MBAC_DOMAIN_CAP] when set to a
    positive integer, else [min 8 (Domain.recommended_domain_count ())]. *)

val effective_jobs : ?jobs:int -> int -> int
(** [effective_jobs ?jobs n] is the pool width {!run_tasks} will
    actually use for [n] tasks: [min jobs n (domain_cap ())] (with
    [jobs] defaulting to {!default_jobs}), or [0] when [n = 0].
    @raise Invalid_argument if [jobs < 1]. *)

val run_tasks :
  ?jobs:int -> ?count_tasks:bool -> (unit -> 'a) list -> 'a list
(** [run_tasks ~jobs tasks] executes every task on a pool of
    {!effective_jobs} domains and returns the results in submission
    order.

    [count_tasks] (default [true]) controls the
    [parallel_tasks_total] / [parallel_tasks_skipped_total] increments.
    Pass [false] when the {e number} of pool invocations depends on the
    execution width — as in the network engine, whose driver submits
    one task per runner — so metric snapshots stay byte-identical for
    every [jobs] value there too.

    If any task raises, tasks that have not started by the time of the
    failure are skipped (contributing no telemetry), and once the pool
    drains the {e first failure in submission order} is re-raised with
    its backtrace.  Skipping never changes which exception is re-raised:
    a task is only skipped when an earlier-submitted task has already
    failed.  Telemetry from every executed task — including failed
    ones — is merged before the re-raise.
    @raise Invalid_argument if [jobs < 1]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [run_tasks ~jobs (List.map (fun x () -> f x) xs)]:
    the parallel [List.map] for independent simulation cells. *)
