let create rng trace ~start =
  let offset =
    Mbac_stats.Sample.uniform rng ~lo:0.0 ~hi:(Trace.duration trace)
  in
  Source.playback trace ~offset ~start

let create_at_offset = Source.playback
