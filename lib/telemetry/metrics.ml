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
    | Hist of Histogram.layout

  type t = { id : int; name : string; spec : spec }

  let ids = Atomic.make 0
  let make name spec = { id = Atomic.fetch_and_add ids 1; name; spec }
  let counter name = make name Counter
  let sum name = make name Sum
  let gauge name = make name Gauge
  let histogram name ~lo ~hi ~bins =
    make name (Hist (Histogram.Linear { lo; hi; bins }))

  let qhist name = make name (Hist Histogram.default_log)
  let name h = h.name

  let build = function
    | Counter -> Metric.Counter (ref 0)
    | Sum -> Metric.Sum { value = 0.0 }
    | Gauge -> Metric.Gauge { value = 0.0 }
    | Hist layout -> Metric.Hist (Histogram.create layout)

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

  (* The float-taking updates are inlined, so their argument stays
     unboxed where they are; the cells are flat, so the store allocates
     nothing.  The [_fixed] forms take an integer numerator and scale:
     no float crosses the call, so they allocate nothing even out of
     line. *)
  let[@inline] add h x =
    match resolve h with
    | Metric.Sum c -> c.value <- c.value +. x
    | cell -> kind_error h.name cell "sum"

  let[@inline] set_gauge h x =
    match resolve h with
    | Metric.Gauge c -> c.value <- x
    | cell -> kind_error h.name cell "gauge"

  let set_gauge_fixed h n ~scale =
    set_gauge h (float_of_int n /. float_of_int scale)

  let[@inline] observe h x =
    match resolve h with
    | Metric.Hist hist -> Histogram.observe hist x
    | cell -> kind_error h.name cell "histogram"

  let observe_fixed h n ~scale =
    match resolve h with
    | Metric.Hist hist -> Histogram.observe_fixed hist n ~scale
    | cell -> kind_error h.name cell "histogram"
end
