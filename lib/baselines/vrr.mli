(** Virtual Ring Routing (Caesar et al., SIGCOMM 2006).

    VRR organizes nodes into a virtual ring ordered by (hashes of) their
    flat identifiers. Each node maintains a {e vset} of r virtual
    neighbors (r/2 successors, r/2 predecessors on the ring) and sets up a
    physical path to each; every node on such a path stores a routing
    entry (endpoints + next hops both ways). Packets are forwarded
    greedily to the stored endpoint whose identifier is virtually closest
    to the destination.

    The paper evaluates VRR with r = 4 and notes two failure modes Disco
    avoids (§3, §5): no bound on stretch, and — because path state lands on
    every intermediate node — routing state that can exceed even path
    vector at central nodes, in theory up to Θ(n²).

    Following §5.1, the converged state depends on join order: we join a
    random start node first and grow the joined component outward, each
    joiner establishing vset paths by VRR-routing through the state built
    so far (falling back to a physical shortest path only when greedy
    routing fails, e.g. for the very first pairs). After all joins,
    stale paths (pairs no longer ring-adjacent) are torn down. *)

type t

val build :
  ?r:int -> ?names:Disco_core.Name.t array -> rng:Disco_util.Rng.t ->
  Disco_graph.Graph.t -> t
(** [r] defaults to 4 as in the paper's evaluation. *)

val route : t -> src:int -> dst:int -> int list option
(** Greedy virtual-ring forwarding; [None] if the packet loops or stalls
    (counted by {!failed_routes} — rare on connected graphs). *)

val ttl_factor : int
(** TTL budget as a multiple of [n] (8, matching {!route}'s internal TTL —
    VRR corridors can wander well past the diameter). *)

val packet_header : t -> src:int -> dst:int -> Disco_core.Dataplane.header
(** The header a source emits: phase {!Dataplane.Greedy}, no commitment
    yet, the destination's virtual id as 8 payload bytes. *)

val state_entries : t -> int array
(** Routing entries per node: converged path entries through the node plus
    its physical-neighbor (pset) entries. *)

val state_bytes : t -> int -> float
(** Exact bytes of a node's slice of the packed slabs: its frozen
    (endpoint, next-hop) entry blocks at 32 bytes each, plus one word per
    vset member, per physical neighbor, and for its own virtual id. *)

val vset : t -> int -> int array
(** The node's converged virtual neighbors. *)

val setup_fallbacks : t -> int
(** Path setups that required the shortest-path fallback during join. *)

val ring_distance_ok : t -> bool
(** Sanity invariant for tests, decided at the end of {!build}: every
    pair in a converged vset had its path set up. *)

(** {2 Compiled forward} *)

type fast
(** A compile-time candidate index over the converged tables. Row [u]
    lists every distinct physical neighbor and stored endpoint of [u] in
    ring order, each with its precomputed next hop (itself for a
    neighbor, else the newest stored corridor hop toward it) and its rank
    in {!route}'s scan order. Three words per candidate in one flat array,
    plus node/ring-position maps and virtual ids as unsigned 32-bit
    halves, so the zero-alloc walker never boxes an Int64. *)

val compile : t -> fast
val fast_prime : fast -> src:int -> dst:int -> unit

val fast_step : fast -> Disco_core.Dataplane.packet -> int -> int
(** One zero-alloc greedy step at node [u], consulting only its pset, its
    stored path entries and the packet's committed endpoint/bound, in
    O(log candidates): one binary search for the destination's ring
    position, then only the equal-vid runs at its circular successor and
    predecessor — ring distance is tent-shaped over the sorted row, so
    every minimum lies there. A candidate must beat the carried bound
    strictly; among equals the least scan rank wins, which is the first
    minimum {!route}'s linear scan finds. With no better candidate, a
    second binary search finds the committed endpoint's hop. {!route}
    keeps its independent linear scan; walking [fast_step] from [src]
    reproduces it exactly (same path, same delivery verdict). *)
