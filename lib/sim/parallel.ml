type task_outcome = Done | Failed of exn * Printexc.raw_backtrace

let m_tasks = Mbac_telemetry.Metrics.Handle.counter "parallel_tasks_total"

let m_skipped =
  Mbac_telemetry.Metrics.Handle.counter "parallel_tasks_skipped_total"

(* ---------- pool sizing ---------- *)

let env_int ~default name =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 0 -> v
      | Some _ | None -> default)

(* Minor collections are stop-the-world across every running domain, so
   a pool wider than the machine is a guaranteed loss: each minor GC
   must wake domains the OS has descheduled (measured on a 1-core
   container: 10-20% slower at --jobs 4 than serial, before this cap
   existed).  The cap therefore defaults to the core count (bounded at
   8 for saturated CI machines); MBAC_DOMAIN_CAP overrides it in either
   direction — the determinism suite raises it to exercise real
   multi-domain schedules even on narrow machines. *)
let domain_cap () =
  match env_int ~default:0 "MBAC_DOMAIN_CAP" with
  | 0 -> max 1 (min 8 (Domain.recommended_domain_count ()))
  | cap -> cap

let default_jobs () = domain_cap ()

let requested_jobs = function
  | Some j when j < 1 -> invalid_arg "Parallel.run_tasks: jobs < 1"
  | Some j -> j
  | None -> default_jobs ()

let effective_jobs ?jobs n =
  let requested = requested_jobs jobs in
  if n <= 0 then 0 else min (min requested n) (domain_cap ())

(* ---------- per-domain GC tuning ---------- *)

(* Minor collections are stop-the-world across every running domain in
   OCaml 5, so under a pool each one costs a full-pool synchronization
   (catastrophic when domains outnumber cores: the barrier waits on the
   OS scheduler).  Worker domains therefore start with a larger minor
   heap than the 256kw default, trading a few MB per worker for ~8x
   fewer global pauses on allocation-heavy replications.  The setting is
   per-domain ([Gc.set] only affects the calling domain), so the
   submitting domain's configuration is never touched. *)
let worker_minor_heap_words = 1 lsl 21

let tune_worker_gc () =
  let g = Gc.get () in
  if worker_minor_heap_words > g.Gc.minor_heap_size then
    Gc.set { g with Gc.minor_heap_size = worker_minor_heap_words }

(* ---------- the pool ---------- *)

(* Everything a finished task hands back to the submitting domain.  The
   cells are accumulated in worker-local lists and scattered into the
   indexed array only after the join, so no two domains ever store into
   adjacent slots of a shared array while the pool runs (the previous
   design wrote boxed options into [results] from every worker — false
   sharing on the slot cache lines, and cross-domain pressure on the
   minor-GC write barrier). *)
type 'a cell = {
  index : int;
  shard : Mbac_telemetry.Shard.t;
  result : 'a option;
  outcome : task_outcome;
}

let run_tasks ?jobs ?(count_tasks = true) tasks =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  if n = 0 then []
  else begin
    let width = effective_jobs ?jobs n in
    (* Lowest index of any task that has raised so far (max_int while
       the sweep is healthy).  A task is skipped only when its index is
       beyond the earliest known failure, so the submission-order-first
       failing task always executes — a plain boolean flag would let a
       fast-failing later task cancel it and change which exception the
       caller sees depending on the schedule — while everything queued
       after the failure is dropped instead of burning the budget. *)
    let first_failed = Atomic.make max_int in
    let rec note_failure i =
      let cur = Atomic.get first_failed in
      if i < cur && not (Atomic.compare_and_set first_failed cur i) then
        note_failure i
    in
    let exec i =
      let shard = Mbac_telemetry.Shard.create () in
      let result, outcome =
        try
          let r =
            Mbac_telemetry.Shard.with_current shard (fun () ->
                Mbac_telemetry.Profile.span "parallel.task" (fun () ->
                    tasks.(i) ()))
          in
          (Some r, Done)
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          note_failure i;
          (None, Failed (e, bt))
      in
      { index = i; shard; result; outcome }
    in
    let results = Array.make n None in
    if width <= 1 then begin
      (* Serial path: same claiming order, no domains — this is what
         [--jobs 1] means and what the determinism contract is checked
         against.  Cancellation applies here too: tasks after the first
         failure never start. *)
      for i = 0 to n - 1 do
        if i < Atomic.get first_failed then results.(i) <- Some (exec i)
      done
    end
    else begin
      let next = Atomic.make 0 in
      (* One cell-list slot per worker; each slot is written exactly
         once, by its own worker, at worker exit. *)
      let buffers = Array.make width [] in
      let work ~helper wid =
        if helper then tune_worker_gc ();
        let acc = ref [] in
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          (* [first_failed] only decreases and claims only increase, so
             once a claim lies past the earliest failure every later
             claim does too — stop claiming.  (A claim never equals it:
             that index was claimed by the task that failed.) *)
          if i >= n || i > Atomic.get first_failed then continue := false
          else acc := exec i :: !acc
        done;
        buffers.(wid) <- !acc
      in
      let helpers =
        Array.init (width - 1) (fun k ->
            Domain.spawn (fun () -> work ~helper:true (k + 1)))
      in
      work ~helper:false 0;
      Array.iter Domain.join helpers;
      Array.iter
        (List.iter (fun cell -> results.(cell.index) <- Some cell))
        buffers
    end;
    (* Merge telemetry in submission order (also for failed tasks, so
       their partial counts are not lost; tasks skipped by cancellation
       have no shard and contribute nothing), then re-raise the first
       failure in submission order; otherwise unwrap in submission
       order.  Claims happen in index order and only failures raise the
       flag, so the submission-order-first failing task is always
       executed and recorded: the re-raised exception is the same at
       every pool width. *)
    Array.iter
      (function
        | Some cell -> Mbac_telemetry.Shard.merge_into_current cell.shard
        | None -> ())
      results;
    let skipped = Array.fold_left
        (fun acc slot -> if slot = None then acc + 1 else acc) 0 results
    in
    (* Executed tasks (failed ones included) are counted once here, in
       the submitting shard, rather than once inside each task shard:
       the merged total is identical, but tasks skip a per-task handle
       resolution and tasks that record nothing keep an empty shard
       (which the merge then skips outright). *)
    if count_tasks then begin
      Mbac_telemetry.Metrics.Handle.inc m_tasks ~by:(n - skipped);
      if skipped > 0 then
        Mbac_telemetry.Metrics.Handle.inc m_skipped ~by:skipped
    end;
    Array.iter
      (function
        | Some { outcome = Failed (e, bt); _ } ->
            Printexc.raise_with_backtrace e bt
        | Some _ | None -> ())
      results;
    Array.to_list
      (Array.map
         (function
           | Some { result = Some r; outcome = Done; _ } -> r
           | Some _ | None ->
               (* unreachable: no task failed (we would have re-raised),
                  hence no task was skipped, so every slot holds Done *)
               assert false)
         results)
  end

let map ?jobs f xs = run_tasks ?jobs (List.map (fun x () -> f x) xs)
