(** Conservative cross-shard message transport.

    Shards exchange flow-setup traffic in structure-of-arrays outboxes:
    one outbox per (source shard, destination shard) pair, written only
    by its source shard while the window runs, drained only at the
    window barrier by the single delivering domain.  {!Network} sends
    through it only the messages between shards that different runners
    drain: a message between two shards of one runner is pushed into
    the destination's wheel when it is sent, so at width 1 the exchange
    carries nothing.  Steady-state
    {!send} and {!deliver} allocate nothing: arrays grow by doubling
    and are then reused, and {!send} is [[@inline]] so its float
    arguments are stored without being boxed.

    {2 Determinism}

    {!deliver} sorts nothing.  It concatenates the outboxes destined
    for a shard in [(src_shard, seq)] order, where [seq] is the source
    shard's send order.  The caller pushes that inbox, in order, into
    the destination shard's calendar wheel, which breaks time ties by
    push order, so the delivered messages pop in
    [(time, src_shard, seq)] order.  Both orders are pure functions of
    the messages themselves, never of domain scheduling.  Messages
    pushed at send time interleave with them in push order, so the pop
    order of one run differs from another width's only on exact time
    ties, which the network's determinism contract assumes away. *)

type t

val create : shards:int -> t
(** [shards] in [1..256]. *)

val send :
  t ->
  src:int ->
  dst:int ->
  time:float ->
  kind:int ->
  link:int ->
  hop:int ->
  route:int ->
  seq:int ->
  islot:int ->
  igen:int ->
  rate:float ->
  t_end:float ->
  unit
(** Append a message to the [(src, dst)] outbox.  [time] is the
    delivery (virtual) time; the remaining fields are protocol payload
    the transport does not interpret.  Only shard [src]'s domain may
    call this while a window is running. *)

val deliver : t -> dst:int -> int
(** Copy every outbox destined for [dst] into the inbox and empty them;
    returns the message count.  The inbox is then read with the
    accessors below, indexed [0 .. count-1] in [(src, seq)] order:
    source shards ascending, each one's messages in send order.  Must
    only be called between windows, after the barrier. *)

val in_time : t -> int -> float
val in_kind : t -> int -> int
val in_link : t -> int -> int
val in_hop : t -> int -> int
val in_route : t -> int -> int
val in_seq : t -> int -> int
val in_islot : t -> int -> int
val in_igen : t -> int -> int
val in_rate : t -> int -> float
val in_tend : t -> int -> float
