(* Windowed time-series state, owned by [Timeseries].  [base] holds
   deep copies of this shard's metric cells as of the last window
   boundary (or run start), so a window line can render the deltas. *)
type series = {
  buf : Buffer.t;
  mutable label_override : string;  (* "" = none; survives runs *)
  mutable run_label : string;
  mutable runs : int;               (* runs started in this shard *)
  mutable windows : int;            (* windows emitted in the current run *)
  mutable active : bool;            (* a run has started *)
  base : (string, Metric.t) Hashtbl.t;
}

type t = {
  table : (string, Metric.t) Hashtbl.t;
  trace : Buffer.t;
  emit_counts : (string, int ref) Hashtbl.t;
  series : series;
  (* Per-shard cache of handle-resolved metrics, indexed by the global
     handle id (see [Metrics.Handle]).  Purely an accelerator: the
     string [table] stays the source of truth for snapshots and merges,
     so handles of one name always hit the same cell.  The cache lives
     in the shard — which is domain-local — so handle reads never race
     across domains. *)
  mutable cells : Metric.t option array;
}

let create () =
  { table = Hashtbl.create 64;
    trace = Buffer.create 256;
    emit_counts = Hashtbl.create 8;
    series =
      { buf = Buffer.create 0;
        label_override = "";
        run_label = "";
        runs = 0;
        windows = 0;
        active = false;
        base = Hashtbl.create 8 };
    cells = [||] }

let[@inline] cell t ~id =
  let cells = t.cells in
  if id < Array.length cells then Array.unsafe_get cells id else None

let set_cell t ~id m =
  let len = Array.length t.cells in
  if id >= len then begin
    let ncap = max 16 (max (id + 1) (2 * len)) in
    let cells = Array.make ncap None in
    Array.blit t.cells 0 cells 0 len;
    t.cells <- cells
  end;
  t.cells.(id) <- Some m

let key = Domain.DLS.new_key create

let current () = Domain.DLS.get key

let with_current shard f =
  let previous = Domain.DLS.get key in
  Domain.DLS.set key shard;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key previous) f

let reset_current () = Domain.DLS.set key (create ())

let find_metric t name = Hashtbl.find_opt t.table name

let get_or_create t name build =
  match Hashtbl.find_opt t.table name with
  | Some cell -> cell
  | None ->
      let cell = build () in
      Hashtbl.replace t.table name cell;
      cell

let metrics t =
  Hashtbl.fold (fun name cell acc -> (name, cell) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let is_empty t =
  Hashtbl.length t.table = 0 && Buffer.length t.trace = 0
  && Buffer.length t.series.buf = 0

let merge_into_current src =
  (* The pool's join merges one shard per task, serially, in the
     submitting domain — skip the sort-and-probe entirely for tasks
     that recorded nothing. *)
  if not (is_empty src) then begin
    let dst = current () in
    List.iter
      (fun (name, cell) ->
        match Hashtbl.find_opt dst.table name with
        | Some into -> Metric.merge_into ~into cell
        | None -> Hashtbl.replace dst.table name (Metric.copy cell))
      (metrics src);
    Buffer.add_buffer dst.trace src.trace;
    Buffer.add_buffer dst.series.buf src.series.buf
  end

let trace_buffer t = t.trace
let series t = t.series

let bump_emit_count t kind =
  match Hashtbl.find_opt t.emit_counts kind with
  | Some r ->
      let v = !r in
      incr r;
      v
  | None ->
      Hashtbl.replace t.emit_counts kind (ref 1);
      0
