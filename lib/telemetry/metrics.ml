let kind_error name cell want =
  invalid_arg
    (Printf.sprintf "Mbac_telemetry.Metrics: %S is a %s, not a %s" name
       (Metric.kind_name cell) want)

(* Pre-resolved handles: the name -> cell binding is established once
   per (handle, shard) pair instead of once per call, so hot-path
   updates skip the string hash and table probe.  A handle records only
   how to (re)build its metric; the resolved cell is cached in the
   domain-local shard, keyed by the handle's global id, which keeps the
   fast path race-free and keeps fresh per-task shards (the parallel
   engine installs one per task) resolving into their own tables — the
   merge-in-submission-order determinism contract is untouched. *)
module Handle = struct
  type spec =
    | Counter
    | Sum
    | Gauge
    | Hist of { lo : float; hi : float; bins : int }
    | Qhist

  type t = { id : int; name : string; spec : spec }

  let ids = Atomic.make 0
  let make name spec = { id = Atomic.fetch_and_add ids 1; name; spec }
  let counter name = make name Counter
  let sum name = make name Sum
  let gauge name = make name Gauge
  let histogram name ~lo ~hi ~bins = make name (Hist { lo; hi; bins })
  let qhist name = make name Qhist
  let name h = h.name

  let build = function
    | Counter -> Metric.Counter (ref 0)
    | Sum -> Metric.Sum (ref 0.0)
    | Gauge -> Metric.Gauge (ref 0.0)
    | Hist { lo; hi; bins } ->
        Metric.Hist (Metric.Histogram.create ~lo ~hi ~bins)
    | Qhist -> Metric.Qhist (Quantile_histogram.create ())

  (* First touch of this handle in the current shard: bind through the
     string table (an existing cell of the name wins, so two handles of
     one name share a cell) and cache the resolved cell under the handle
     id. *)
  let resolve_slow h shard =
    let m = Shard.get_or_create shard h.name (fun () -> build h.spec) in
    Shard.set_cell shard ~id:h.id m;
    m

  let[@inline] resolve h =
    let shard = Shard.current () in
    match Shard.cell shard ~id:h.id with
    | Some m -> m
    | None -> resolve_slow h shard

  let[@inline] inc ?(by = 1) h =
    match resolve h with
    | Metric.Counter r -> r := !r + by
    | cell -> kind_error h.name cell "counter"

  let[@inline] add h x =
    match resolve h with
    | Metric.Sum r -> r := !r +. x
    | cell -> kind_error h.name cell "sum"

  let[@inline] set_gauge h x =
    match resolve h with
    | Metric.Gauge r -> r := x
    | cell -> kind_error h.name cell "gauge"

  let[@inline] observe h x =
    match resolve h with
    | Metric.Hist hist -> Metric.Histogram.observe hist x
    | cell -> kind_error h.name cell "histogram"

  let[@inline] observe_q h x =
    match resolve h with
    | Metric.Qhist hist -> Quantile_histogram.observe hist x
    | cell -> kind_error h.name cell "quantile_histogram"
end
