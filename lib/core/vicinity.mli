(** Vicinities: the k closest nodes to each node (§4.2).

    [V(v)] is the set of [k = Θ(sqrt(n log n))] nodes closest to [v]
    (excluding [v] itself), with shortest paths to each. Fixing the size —
    rather than growing clusters until a landmark is met, as S4 does — is
    what gives Disco its per-node state bound on every topology.

    Views live in a node-indexed store ({!Disco_util.Pool.Memo}): each is
    computed on first use (a truncated Dijkstra on a workspace the store
    lends) and kept, since stretch experiments touch only the nodes along
    sampled routes while state accounting needs only the uniform size [k].
    The compiled data planes read filled views in place ({!peek}). *)

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
(** [view t v] is V(v), computing and storing it on first use. *)

val peek : t -> int -> view
(** V(v) if it is filled, else a view with no members.  Never fills; a
    lock-free array read, so the compiled steps call it per hop (their
    [compile] fills every view first). *)

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
(** Fill every view (the eager control-plane build; the compiled Disco and
    NDDisco forwards call it at compile time). *)

val cached_count : t -> int
(** Number of filled views. *)

val view_bytes : view -> int
(** Exact bytes of one view's member/dist/parent arrays plus radius. *)
