(** The generalized Thorup–Zwick hierarchy: other points on the
    state/stretch tradeoff curve (§6: "Disco has chosen one point in the
    state/stretch tradeoff space ... can we translate other tradeoff
    points to a distributed setting?").

    TZ's full scheme samples nested landmark levels
    [A_0 = V ⊇ A_1 ⊇ ... ⊇ A_{k-1}] (each kept with probability
    [n^{-1/k}]) and gives every node a {e bunch}: at each level, the
    sampled nodes closer than the nearest next-level sample. Routing via
    the first common pivot yields worst-case stretch [2k - 1] with
    [O~(n^{1/k})] state — [k = 2] is (essentially) the Disco/S4 regime,
    larger [k] trades stretch for even smaller tables.

    This is the {e static, name-dependent} skeleton of that family, enough
    to measure the tradeoff curve (the [tradeoff] experiment); making its
    higher-[k] points dynamic and name-independent is exactly the open
    problem the paper poses. *)

type t

val build : rng:Disco_util.Rng.t -> k:int -> Disco_graph.Graph.t -> t
(** [build ~rng ~k g] samples the hierarchy and computes all bunches.
    Requires [k >= 1]; [k = 1] degenerates to full shortest-path state. *)

val k : t -> int

val level_sizes : t -> int array
(** |A_0|, ..., |A_{k-1}|. *)

val state : t -> int -> int
(** Routing-table entries at a node: its bunch plus its per-level pivots. *)

val state_bytes : t -> int -> float
(** Exact bytes of a node's slice of the packed tables: its CSR bunch row
    with the parallel distance slab (16 bytes per entry) plus a
    (pivot, distance) pair per level. *)

val route_length : t -> src:int -> dst:int -> float
(** Length of the TZ route (via the first common pivot, taking the better
    direction). Finite for every connected pair. *)

val route : t -> src:int -> dst:int -> int list option
(** The node path of the TZ route, [src ~> pivot ~> dst] along shortest
    paths; [None] only when the pair is disconnected. Its length can
    exceed {!route_length} by the unexplored reverse direction — the
    scheme forwards via the pivot found climbing from [src]. *)

val stretch_bound : t -> float
(** The scheme's worst-case guarantee, [2k - 1]. *)

val in_bunch : t -> node:int -> target:int -> bool
(** Is [target] in [node]'s bunch? (Exposed for tests.) *)

val ttl_factor : int
(** TTL budget as a multiple of [n] (4). *)

val packet_header : t -> src:int -> dst:int -> Disco_core.Dataplane.header
(** The header the source emits: the routing pivot of the (src, dst) climb
    as the [Steer] waypoint (-1 when the pair is disconnected). *)

(** {2 Compiled forward} *)

type fast
(** Pivot trees flattened into parent arrays for the zero-alloc walker. *)

val compile : t -> fast

val fast_prime : fast -> src:int -> dst:int -> unit
(** Force the (src, dst) routing pivot's tree for one flow. *)

val fast_step : fast -> Disco_core.Dataplane.packet -> int -> int
(** One zero-alloc decision: climb the carried pivot's shortest-path tree
    (each hop a local parent lookup), then the pivot writes the explicit
    descent. Walks reproduce {!route} node for node. *)
