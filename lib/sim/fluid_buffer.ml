let m_loss_episodes =
  Mbac_telemetry.Metrics.Handle.counter "buffer_loss_episodes_total"

type t = {
  capacity : float;
  size : float;
  mutable level : float;
  mutable total_time : float;
  mutable loss_time : float;
  mutable lost : float;
  mutable offered : float;
  mutable losing : bool;
}

let create ~capacity ~size =
  if capacity <= 0.0 then invalid_arg "Fluid_buffer.create: capacity <= 0";
  if size <= 0.0 then invalid_arg "Fluid_buffer.create: size <= 0";
  { capacity; size; level = 0.0; total_time = 0.0; loss_time = 0.0;
    lost = 0.0; offered = 0.0; losing = false }

let level t = t.level

let copy t =
  { capacity = t.capacity; size = t.size; level = t.level;
    total_time = t.total_time; loss_time = t.loss_time; lost = t.lost;
    offered = t.offered; losing = t.losing }

let feed t ~duration ~load =
  if duration < 0.0 then invalid_arg "Fluid_buffer.feed: negative duration";
  if duration > 0.0 then begin
    t.total_time <- t.total_time +. duration;
    t.offered <- t.offered +. (load *. duration);
    let drift = load -. t.capacity in
    if drift > 0.0 then begin
      (* filling: time until the buffer hits its ceiling *)
      let to_full = (t.size -. t.level) /. drift in
      if to_full >= duration then begin
        t.level <- t.level +. (drift *. duration);
        t.losing <- false
      end
      else begin
        t.level <- t.size;
        let overflow_span = duration -. to_full in
        t.loss_time <- t.loss_time +. overflow_span;
        t.lost <- t.lost +. (drift *. overflow_span);
        if not t.losing then begin
          t.losing <- true;
          Mbac_telemetry.Metrics.Handle.inc m_loss_episodes
        end
      end
    end
    else begin
      t.losing <- false;
      if drift < 0.0 then
        (* draining; clamp at empty *)
        t.level <- Float.max 0.0 (t.level +. (drift *. duration))
      (* drift = 0: level unchanged *)
    end
  end

let reset_statistics t =
  t.total_time <- 0.0;
  t.loss_time <- 0.0;
  t.lost <- 0.0;
  t.offered <- 0.0

let total_time t = t.total_time
let loss_time t = t.loss_time

let loss_time_fraction t =
  if t.total_time <= 0.0 then 0.0 else t.loss_time /. t.total_time

let lost_volume t = t.lost
let offered_volume t = t.offered
