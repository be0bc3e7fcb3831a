(** Shortest-path machinery: full, truncated, and multi-source Dijkstra.

    Everything the protocols derive their tables from: vicinities are
    truncated runs ({!k_closest}), S4 clusters are radius-bounded runs
    ({!within_radius}), landmark trees come from {!multi_source}, and
    stretch is measured against {!sssp}.

    A {!workspace} holds every array a run needs: distances, parents,
    run stamps, the settle order, and the frontier, an indexed binary heap
    over flat int arrays keyed by (distance, push sequence), so equal
    distances settle first-in first-out. A run on a reused workspace
    resets nothing per node and allocates only its result, and the relax
    loop reads the graph's CSR arrays directly. Workspaces are
    single-threaded; create one per domain. *)

type workspace

val make_workspace : Graph.t -> workspace

type sssp = { dist : float array; parent : int array }
(** Full single-source result: [dist.(v) = infinity] and [parent.(v) = -1]
    when [v] is unreachable; [parent.(src) = -1]. *)

val sssp : ?ws:workspace -> ?until:int -> Graph.t -> int -> sssp
(** [sssp ?until g src] runs to exhaustion by default; with [~until:t] it
    halts as soon as [t] settles (its [dist]/[parent] entries are final),
    leaving later nodes at [infinity]/[-1]. *)

val distance : ?ws:workspace -> Graph.t -> int -> int -> float
(** Single-pair distance with early termination; [infinity] if unreachable. *)

type truncated = {
  source : int;
  order : int array;  (** settled nodes in settle order; [order.(0) = source] *)
  tdist : float array;  (** parallel to [order] *)
  tparent : int array;
      (** parallel to [order]: predecessor node id on the shortest path from
          [source]; [-1] for the source itself. Predecessors always appear
          earlier in [order]. *)
}

val k_closest : ?ws:workspace -> Graph.t -> int -> int -> truncated
(** [k_closest g src k] settles the [min k n] nodes closest to [src]
    (including [src]). Distance ties at the boundary are broken by
    settle order, deterministically. The search does not queue a node
    that already ranks behind [k] queued or settled ones, so a
    high-degree node's scan stops queueing once the [k] slots are
    filled; the result is exactly the first [k] nodes of an unbounded
    run. *)

val within_radius : ?ws:workspace -> Graph.t -> int -> float -> truncated
(** [within_radius g src r] settles every node at distance < [r] — the
    strict inequality matches S4's cluster definition ("closer to v than
    to their closest landmark"). Nodes at distance >= [r] are never
    queued; the result is the prefix of an unbounded run below [r]. *)

val pruned : ws:workspace -> Graph.t -> int -> expand:(int -> float -> bool) -> unit
(** [pruned ~ws g src ~expand] settles nodes in distance order from
    [src], asking [expand u d] at each settled node [u] (at distance [d]):
    [true] relaxes [u]'s edges, [false] leaves them unrelaxed, so the
    search only grows through expanded nodes and each [d] is the distance
    over paths whose interior is expanded.  The callback records whatever
    the caller needs; nothing is returned. *)

type multi = {
  mdist : float array;  (** distance to the nearest source *)
  mparent : int array;  (** shortest-path forest predecessor; -1 at roots *)
  msource : int array;  (** which source is nearest; -1 if unreachable *)
}

val multi_source : Graph.t -> int array -> multi
(** Simultaneous Dijkstra from all sources: per node, the distance to and
    identity of its nearest source (ties broken by heap settle order), and
    the forest for path extraction. Used for landmark assignment l_v. *)

val path_of_parents : parent:(int -> int) -> src:int -> dst:int -> int list
(** Reconstruct [src; ...; dst] by walking [parent] back from [dst].
    @raise Invalid_argument if the walk does not reach [src] within n
    steps (caller passes a closure that knows its own bounds). *)

val path_length : Graph.t -> int list -> float
(** Total weight of a node path.
    @raise Invalid_argument on a non-path (missing edge). *)
