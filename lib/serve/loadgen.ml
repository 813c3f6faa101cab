module Rng = Mbac_stats.Rng
module Sample = Mbac_stats.Sample
module CQ = Mbac_sim.Calendar_queue

type workload = {
  seed : int;
  requests : int;
  arrival_mean : float;
  hold_mean : float;
  load_mean : float;
  load_std : float;
  n_criteria : int;
}

type summary = {
  sent : int;
  decides : int;
  admitted : int;
  rejected : int;
  departures : int;
  final_stats : Protocol.response;
}

let check name v = if not (Float.is_finite v && v > 0.0) then
  invalid_arg (Printf.sprintf "Loadgen: %s must be finite and positive" name)

let fail_reply what = function
  | Protocol.Error_reply { code; message } ->
      failwith (Printf.sprintf "Loadgen: %s failed: server error %d (%s)" what code message)
  | _ -> failwith (Printf.sprintf "Loadgen: unexpected reply to %s" what)

let drive w ~rpc ~post =
  check "arrival_mean" w.arrival_mean;
  check "hold_mean" w.hold_mean;
  check "load_mean" w.load_mean;
  check "load_std" w.load_std;
  if w.requests < 0 then invalid_arg "Loadgen: requests must be >= 0";
  if w.n_criteria < 1 then invalid_arg "Loadgen: n_criteria must be >= 1";
  let arrivals = Rng.derive ~seed:w.seed ~tag:"loadgen/arrivals" in
  let holds = Rng.derive ~seed:w.seed ~tag:"loadgen/holds" in
  let loads = Rng.derive ~seed:w.seed ~tag:"loadgen/loads" in
  let picks = Rng.derive ~seed:w.seed ~tag:"loadgen/criteria" in
  (* scheduled departures: due time, payload = the arrival's index into
     [dep_load] *)
  let deps = CQ.create () in
  let dep_load = Float.Array.create (max 1 w.requests) in
  let sent = ref 0 in
  let admitted = ref 0 in
  let rejected = ref 0 in
  let departures = ref 0 in
  (* Only Decide and the closing Stats wait for their replies; the
     bookkeeping is posted and rides in front of the next one. *)
  let send req = incr sent; rpc req and post req = incr sent; post req in
  let t = ref 0.0 in
  for k = 0 to w.requests - 1 do
    t := !t +. Sample.exponential arrivals ~mean:w.arrival_mean;
    (* retire every flow whose holding time expired before this arrival *)
    while (not (CQ.is_empty deps)) && CQ.min_time deps <= !t do
      let due = CQ.min_time deps in
      let load = Float.Array.get dep_load (CQ.min_payload deps) in
      CQ.drop_min deps;
      post (Protocol.Subtract { load; now = due });
      incr departures
    done;
    let load = Sample.lognormal_of_moments loads ~mean:w.load_mean ~std:w.load_std in
    let criterion = Rng.int picks w.n_criteria in
    let admit =
      match send (Protocol.Decide { criterion; load; now = !t }) with
      | Protocol.Decision { admit; _ } -> admit
      | r -> fail_reply "Decide" r
    in
    post (Protocol.Log_decision { criterion; admit });
    if admit then begin
      incr admitted;
      post (Protocol.Add { load; now = !t });
      let hold = Sample.exponential holds ~mean:w.hold_mean in
      Float.Array.set dep_load k load;
      CQ.push deps ~time:(!t +. hold) k
    end
    else incr rejected
  done;
  let final_stats =
    match send Protocol.Stats with
    | Protocol.Stats_reply _ as r -> r
    | r -> fail_reply "Stats" r
  in
  { sent = !sent; decides = w.requests; admitted = !admitted;
    rejected = !rejected; departures = !departures; final_stats }

let call client f req =
  try f client req
  with Client.Post_failed (posted, r) ->
    fail_reply (Protocol.request_name posted) r

let run client w =
  drive w ~rpc:(call client Client.rpc) ~post:(call client Client.post)

(* The client sends its posted frames with the next round trip's own;
   the budget that can flush posts early never fills in this mix. *)
let record client w =
  let batch = Buffer.create 256 and batches = ref [] in
  let post req =
    Protocol.encode_request batch req;
    call client Client.post req
  and rpc req =
    Protocol.encode_request batch req;
    batches := Buffer.to_bytes batch :: !batches;
    Buffer.clear batch;
    call client Client.rpc req
  in
  ignore (drive w ~rpc ~post);
  Array.of_list (List.rev !batches)

let print_summary oc s =
  Printf.fprintf oc "requests sent      %d\n" s.sent;
  Printf.fprintf oc "decide requests    %d\n" s.decides;
  Printf.fprintf oc "admitted           %d\n" s.admitted;
  Printf.fprintf oc "rejected           %d\n" s.rejected;
  Printf.fprintf oc "departures         %d\n" s.departures;
  match s.final_stats with
  | Protocol.Stats_reply { flows; admitted_load; capacity; _ } ->
      Printf.fprintf oc "flows in system    %d\n" flows;
      Printf.fprintf oc "admitted load      %.6f\n" admitted_load;
      Printf.fprintf oc "capacity           %.6f\n" capacity
  | _ -> ()
