(** Vicinities: the k closest nodes to each node (§4.2).

    [V(v)] is the set of [k = Θ(sqrt(n log n))] nodes closest to [v]
    (excluding [v] itself), with shortest paths to each. Fixing the size —
    rather than growing clusters until a landmark is met, as S4 does — is
    what gives Disco its per-node state bound on every topology.

    Views are computed lazily (truncated Dijkstra per node) and cached,
    since stretch experiments touch only the nodes along sampled routes
    while state accounting needs only the uniform size [k]. *)

type t

val create : Disco_graph.Graph.t -> k:int -> t
val k : t -> int

type view = {
  members : int array;  (** sorted ascending by node id; excludes the owner *)
  dists : float array;  (** parallel to [members] *)
  parents : int array;
      (** parallel: predecessor on the shortest path from the owner;
          the owner itself appears as predecessor of its first hops *)
  radius : float;  (** max distance to a member, 0 if k = 0 *)
}

val view : t -> int -> view
(** [view t v] is V(v), computing and caching it on first use. *)

val mem : t -> int -> int -> bool
(** [mem t v w]: is [w] in V(v)? (Not symmetric!) *)

val dist : t -> int -> int -> float option
(** Distance [d(v, w)] if [w] is in V(v). *)

val path : t -> int -> int -> int list option
(** Shortest path [v; ...; w] if [w] is in V(v). *)

val first_hop_count : t -> int -> int
(** Number of distinct first hops used by v's vicinity routes — the
    forwarding-label mappings v must retain for them (Theorem 2's
    label-mapping state term). *)

val precompute_all : t -> unit
(** Force every view into the cache (used before tight measurement
    loops). *)

val cached_count : t -> int

val slots : t -> view array
(** The packed face for compiled plans: slot [v] is the same record
    [view t v] returns, indexed directly with no lock and no copying.
    Forcing it computes every view once ([precompute_all] semantics);
    the oracles' lazy fills and the compiled data plane then share the
    arrays. *)

val view_bytes : view -> int
(** Exact bytes of one view's member/dist/parent arrays plus radius. *)
