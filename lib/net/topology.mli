(** Network topologies for the multi-link simulator.

    A topology is a set of unidirectional links (each with a capacity)
    and a set of routes.  A route is the ordered list of links a flow
    of that class traverses, plus the Poisson arrival rate of new flows
    on the route.  Links are identified by dense integer ids; a route
    must not visit the same link twice.

    Topologies are immutable; {!Network} partitions the links into
    shards at run construction. *)

type route = {
  links : int array;  (** on-route link ids, ingress first *)
  rate : float;       (** Poisson flow-arrival rate on this route *)
}

type t = {
  capacities : float array;  (** capacity of link [i] *)
  routes : route array;
}

val make : capacities:float array -> routes:route array -> t
(** Validates: at least one link and one route, finite positive
    capacities and rates, in-range link ids, no repeated link within a
    route.
    @raise Invalid_argument otherwise. *)

val num_links : t -> int
val num_routes : t -> int

val max_hops : t -> int
(** Longest route length, in links. *)

(** {2 Generators}

    [rate] is the total offered flow-arrival rate {e per link}: each
    generator splits it across the routes crossing a link so that every
    link sees an aggregate offered arrival rate of [rate] (core links
    of {!core_edge} see the same per-link rate as edges by
    construction). *)

val line : links:int -> capacity:float -> rate:float -> t
(** A chain of [links] links: one single-link route per link (carrying
    half the offered rate) plus one end-to-end route over the whole
    chain (the other half). *)

val star : leaves:int -> capacity:float -> rate:float -> t
(** [leaves >= 2] links meeting at a hub: one 2-hop route per unordered
    leaf pair, each with rate [rate / (leaves - 1)]. *)

val core_edge : edges:int -> cores:int -> capacity:float -> core_scale:float -> rate:float -> t
(** Fat-tree-ish: [edges] edge links (ids [0..edges-1], capacity
    [capacity]) and [cores] core links (ids [edges..], capacity
    [core_scale *. capacity]).  One 3-hop route per unordered edge pair
    [(i, j)]: edge [i] → core [(i + j) mod cores] → edge [j]. *)

val of_spec : rate:float -> capacity:float -> string -> (t, string) result
(** Parse a generator spec: ["line:N"], ["star:N"], or
    ["core-edge:ExC"] (e.g. ["core-edge:4x2"], core capacity fixed at
    [2 *. capacity]).  A [rate] or [capacity] {!make} refuses is an
    [Error] too, never an exception. *)

val parse : string -> (t, string) result
(** Parse a topology config: one directive per line, [#] comments.
    [link CAPACITY] appends a link (ids in file order from 0);
    [route RATE LINK...] appends a route.  Any input {!make} refuses
    is an [Error], never an exception. *)
