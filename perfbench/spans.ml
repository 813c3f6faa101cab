(* In-memory spans recorded from the benchmark's own code, around the
   calls it makes into each layer.  Each span has a name, a start and
   end (monotonic ns), a parent (-1 for a root) and the run id; spans
   stay in growable arrays while the run is timed and are written out
   as JSON lines only when it ends.  A layer's self time is its span's
   duration minus the durations of its children: spans are opened and
   closed from one thread, so children never overlap. *)

type t = {
  run_id : string;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable name_ids : int array;
  mutable starts : int array;
  mutable ends : int array;
  mutable parents : int array;
  mutable ops : int array;  (* operations the span covers, 0 if none *)
  mutable len : int;
  mutable open_ : int list;  (* stack of open span ids *)
}

let create ~run_id =
  let cap = 1024 in
  { run_id; names = Hashtbl.create 64; name_of = [||];
    name_ids = Array.make cap 0; starts = Array.make cap 0;
    ends = Array.make cap 0; parents = Array.make cap 0;
    ops = Array.make cap 0; len = 0; open_ = [] }

let intern t name =
  match Hashtbl.find_opt t.names name with
  | Some id -> id
  | None ->
      let id = Array.length t.name_of in
      Hashtbl.add t.names name id;
      t.name_of <- Array.append t.name_of [| name |];
      id

let grow t =
  let cap = 2 * Array.length t.starts in
  let g a = let b = Array.make cap 0 in Array.blit a 0 b 0 t.len; b in
  t.name_ids <- g t.name_ids;
  t.starts <- g t.starts;
  t.ends <- g t.ends;
  t.parents <- g t.parents;
  t.ops <- g t.ops

let current_parent t = match t.open_ with p :: _ -> p | [] -> -1

(* A closed span with explicit endpoints, under the innermost open span.
   Used for the many short RPC spans. *)
let record t ~name ~start ~stop =
  if t.len = Array.length t.starts then grow t;
  let i = t.len in
  t.name_ids.(i) <- intern t name;
  t.starts.(i) <- start;
  t.ends.(i) <- stop;
  t.parents.(i) <- current_parent t;
  t.ops.(i) <- 0;
  t.len <- i + 1;
  i

let open_span t name =
  let now = Clock.now_ns () in
  let i = record t ~name ~start:now ~stop:now in
  t.open_ <- i :: t.open_;
  i

let close_span ?(ops = 0) t i =
  t.ends.(i) <- Clock.now_ns ();
  t.ops.(i) <- ops;
  match t.open_ with
  | j :: rest when j = i -> t.open_ <- rest
  | _ -> invalid_arg "Spans.close_span: not the innermost open span"

(* [with_span t name f] runs [f ()] inside a span; [f] returns the
   result and the number of operations it performed. *)
let with_span t name f =
  let i = open_span t name in
  match f () with
  | v, ops -> close_span ~ops t i; v
  | exception e -> close_span t i; raise e

let duration_ns t i = t.ends.(i) - t.starts.(i)

(* Self time of every span: its duration minus its children's. *)
let self_times t =
  let self = Array.init t.len (duration_ns t) in
  for j = 0 to t.len - 1 do
    let p = t.parents.(j) in
    if p >= 0 then self.(p) <- self.(p) - duration_ns t j
  done;
  self

let name t i = t.name_of.(t.name_ids.(i))

(* Ids of every span with the given name, in creation order. *)
let find_all t nm =
  match Hashtbl.find_opt t.names nm with
  | None -> [||]
  | Some id ->
      let acc = ref [] in
      for i = t.len - 1 downto 0 do
        if t.name_ids.(i) = id then acc := i :: !acc
      done;
      Array.of_list !acc

(* Total self time and ops over every span of one name. *)
let self_total t nm =
  let self = self_times t in
  Array.fold_left
    (fun (ns, ops) i -> (ns + self.(i), ops + t.ops.(i)))
    (0, 0) (find_all t nm)

let write t ~path =
  let oc = open_out path in
  for i = 0 to t.len - 1 do
    Printf.fprintf oc
      "{\"run\":%S,\"id\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"ops\":%d}\n"
      t.run_id i (name t i) t.parents.(i) t.starts.(i) t.ends.(i) t.ops.(i)
  done;
  close_out oc
