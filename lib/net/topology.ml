type route = { links : int array; rate : float }
type t = { capacities : float array; routes : route array }

let positive x = Float.is_finite x && x > 0.0

let make ~capacities ~routes =
  let nl = Array.length capacities in
  if nl = 0 then invalid_arg "Topology.make: no links";
  if Array.length routes = 0 then invalid_arg "Topology.make: no routes";
  Array.iter
    (fun c ->
      if not (positive c) then
        invalid_arg "Topology.make: capacity must be finite and > 0")
    capacities;
  let seen = Array.make nl (-1) in
  Array.iteri
    (fun r { links; rate } ->
      if Array.length links = 0 then invalid_arg "Topology.make: empty route";
      if not (positive rate) then
        invalid_arg "Topology.make: route rate must be finite and > 0";
      Array.iter
        (fun l ->
          if l < 0 || l >= nl then
            invalid_arg "Topology.make: route references unknown link";
          if seen.(l) = r then
            invalid_arg "Topology.make: route visits a link twice";
          seen.(l) <- r)
        links)
    routes;
  { capacities; routes }

let num_links t = Array.length t.capacities
let num_routes t = Array.length t.routes

let max_hops t =
  Array.fold_left (fun m r -> max m (Array.length r.links)) 0 t.routes

(* ---------- generators ---------- *)

let line ~links ~capacity ~rate =
  if links < 1 then invalid_arg "Topology.line: links < 1";
  let half = rate /. 2.0 in
  let local =
    Array.init links (fun i -> { links = [| i |]; rate = half })
  in
  let transit = { links = Array.init links (fun i -> i); rate = half } in
  (* A 1-link line needs no separate transit route: keep the offered
     rate per link equal to [rate] without a duplicate route. *)
  let routes =
    if links = 1 then [| { links = [| 0 |]; rate } |]
    else Array.append local [| transit |]
  in
  make ~capacities:(Array.make links capacity) ~routes

let star ~leaves ~capacity ~rate =
  if leaves < 2 then invalid_arg "Topology.star: leaves < 2";
  let pair_rate = rate /. float_of_int (leaves - 1) in
  let routes = ref [] in
  for i = leaves - 1 downto 0 do
    for j = leaves - 1 downto i + 1 do
      routes := { links = [| i; j |]; rate = pair_rate } :: !routes
    done
  done;
  make ~capacities:(Array.make leaves capacity) ~routes:(Array.of_list !routes)

let core_edge ~edges ~cores ~capacity ~core_scale ~rate =
  if edges < 2 then invalid_arg "Topology.core_edge: edges < 2";
  if cores < 1 then invalid_arg "Topology.core_edge: cores < 1";
  if not (core_scale > 0.0) then
    invalid_arg "Topology.core_edge: core_scale <= 0";
  let capacities =
    Array.init (edges + cores) (fun i ->
        if i < edges then capacity else core_scale *. capacity)
  in
  let pair_rate = rate /. float_of_int (edges - 1) in
  let routes = ref [] in
  for i = edges - 1 downto 0 do
    for j = edges - 1 downto i + 1 do
      let core = edges + ((i + j) mod cores) in
      routes := { links = [| i; core; j |]; rate = pair_rate } :: !routes
    done
  done;
  make ~capacities ~routes:(Array.of_list !routes)

(* ---------- spec strings ---------- *)

let of_spec ~rate ~capacity spec =
  let fail () =
    Error
      (Printf.sprintf
         "bad topology spec %S (expected line:N, star:N or core-edge:ExC)"
         spec)
  in
  (* the generators validate [rate] and [capacity] through [make] *)
  let build f =
    match f () with t -> Ok t | exception Invalid_argument m -> Error m
  in
  match String.index_opt spec ':' with
  | None -> fail ()
  | Some i -> (
      let kind = String.sub spec 0 i in
      let arg = String.sub spec (i + 1) (String.length spec - i - 1) in
      match kind with
      | "line" -> (
          match int_of_string_opt arg with
          | Some n when n >= 1 ->
              build (fun () -> line ~links:n ~capacity ~rate)
          | Some _ | None -> fail ())
      | "star" -> (
          match int_of_string_opt arg with
          | Some n when n >= 2 ->
              build (fun () -> star ~leaves:n ~capacity ~rate)
          | Some _ | None -> fail ())
      | "core-edge" -> (
          match String.index_opt arg 'x' with
          | None -> fail ()
          | Some j -> (
              let e = String.sub arg 0 j in
              let c = String.sub arg (j + 1) (String.length arg - j - 1) in
              match (int_of_string_opt e, int_of_string_opt c) with
              | Some e, Some c when e >= 2 && c >= 1 ->
                  build (fun () ->
                      core_edge ~edges:e ~cores:c ~capacity ~core_scale:2.0
                        ~rate)
              | _ -> fail ()))
      | _ -> fail ())

(* ---------- config files ---------- *)

let parse text =
  let caps = ref [] and ncaps = ref 0 in
  let routes = ref [] in
  let err line msg = Error (Printf.sprintf "line %d: %s" line msg) in
  let lines = String.split_on_char '\n' text in
  let rec go lineno = function
    | [] -> (
        let capacities = Array.of_list (List.rev !caps) in
        let routes = Array.of_list (List.rev !routes) in
        if Array.length capacities = 0 then Error "no links defined"
        else if Array.length routes = 0 then Error "no routes defined"
        else
          match make ~capacities ~routes with
          | t -> Ok t
          | exception Invalid_argument m -> Error m)
    | l :: rest -> (
        let l =
          match String.index_opt l '#' with
          | Some i -> String.sub l 0 i
          | None -> l
        in
        let toks =
          List.filter (fun s -> s <> "") (String.split_on_char ' ' l)
        in
        match toks with
        | [] -> go (lineno + 1) rest
        | "link" :: [ c ] -> (
            match float_of_string_opt c with
            | Some c when positive c ->
                caps := c :: !caps;
                incr ncaps;
                go (lineno + 1) rest
            | Some _ | None ->
                err lineno "link needs a finite positive capacity")
        | "route" :: rate :: (_ :: _ as ids) -> (
            match float_of_string_opt rate with
            | Some rate when positive rate -> (
                let parsed =
                  List.fold_left
                    (fun acc id ->
                      match (acc, int_of_string_opt id) with
                      | Some acc, Some i -> Some (i :: acc)
                      | _ -> None)
                    (Some []) ids
                in
                match parsed with
                | Some rev ->
                    routes :=
                      { links = Array.of_list (List.rev rev); rate }
                      :: !routes;
                    go (lineno + 1) rest
                | None -> err lineno "route link ids must be integers")
            | Some _ | None -> err lineno "route needs a finite positive rate")
        | d :: _ -> err lineno (Printf.sprintf "unknown directive %S" d))
  in
  go 1 lines
