(** S4 (Mao et al., NSDI 2007): the paper's main baseline (§4.2, §5).

    S4 adapts the cluster-based Thorup–Zwick scheme: random landmarks, and
    each node [v] stores routes to its {e cluster} — the nodes [w] that are
    closer to [v] than to their own landmark ([d(v,w) < d(w, l_w)]) —
    instead of a fixed-size vicinity. Routing goes [s ~> l_t ~> t] with
    "to-destination" shortcutting: the first node on the way whose cluster
    contains [t] diverts directly.

    The catch (§5, footnote 6): random landmark selection breaks the TZ
    state bound — central nodes end up inside a Θ(n)-sized fraction of all
    balls, so their clusters explode. {!cluster_sizes} measures exactly
    that. Name lookup uses the same consistent-hashing resolution database
    over landmarks as NDDisco, making first-packet stretch unbounded. *)

type t

val build :
  ?params:Disco_core.Params.t ->
  ?names:Disco_core.Name.t array ->
  ?landmark_ids:int array ->
  rng:Disco_util.Rng.t ->
  Disco_graph.Graph.t ->
  t

val graph : t -> Disco_graph.Graph.t
val landmarks : t -> Disco_core.Landmarks.t

val radius : t -> int -> float
(** [d(v, l_v)], the ball radius governing who stores a route to [v]. *)

type ball = { bm : int array; bd : float array; bp : int array }
(** A target's ball packed flat: id-sorted members with parallel distances
    and rootward predecessors — the one representation the route oracles
    and the compiled forward both read. *)

val ball : t -> int -> ball
(** Ball of a target (one truncated Dijkstra, memoised). Always contains
    the target itself. *)

val ball_bytes : ball -> int
(** Exact bytes of the packed ball slabs. *)

val in_cluster : t -> node:int -> target:int -> bool
(** Is [target] in [node]'s cluster, i.e. [d(node,target) < radius target]?
    Computed from the target's ball (one truncated Dijkstra, cached). *)

val knows : t -> Disco_core.Shortcut.knowledge
(** Cluster + landmark route knowledge, for shortcutting. *)

val route_later : t -> src:int -> dst:int -> int list
(** Route when the source already knows the destination's landmark:
    direct if [dst] is a landmark or in [src]'s cluster, else via [l_dst]
    with to-destination shortcutting. Worst-case stretch 3 (TZ). *)

val route_first : t -> src:int -> dst:int -> int list
(** First packet: detour via the landmark that owns [h(name_dst)] in the
    resolution database, then continue as {!route_later} from there —
    unbounded stretch. *)

val ttl_factor : int
(** TTL budget as a multiple of [n] (4). *)

val first_header : t -> src:int -> dst:int -> Disco_core.Dataplane.header
(** First packet: explicit route if the source knows the destination,
    else a [Steer] leg toward the resolution owner of [h(name_dst)]. *)

val later_header : t -> src:int -> dst:int -> Disco_core.Dataplane.header
(** Once the source knows the destination's landmark: direct labels, or a
    [Steer] leg toward that landmark. *)

val cluster_sizes : t -> int array
(** |cluster(v)| for every v, by accumulating every node's ball — O(total
    cluster state). This is the quantity that explodes on Internet-like
    topologies. *)

val resolution_loads : t -> int array
(** Resolution-database entries per node (0 off-landmark), computed once. *)

val state_entries :
  t -> cluster_sizes:int array -> resolution_loads:int array -> int -> int
(** Data-plane entries at a node: cluster + landmark routes + forwarding
    labels + resolution-database load. *)

val state_bytes :
  t -> cluster_sizes:int array -> resolution_loads:int array -> int -> float
(** Exact bytes of those entries as packed: 24-byte (member, distance,
    next hop) rows for cluster and landmark routes, one word per label,
    16 bytes per resolution entry. *)

(** {2 Compiled forward} *)

type fast
(** Landmark trees as parent arrays and destination balls as sorted
    member/parent pairs, primed per flow for the zero-alloc walker. *)

val compile : t -> fast

val fast_prime : fast -> src:int -> dst:int -> unit
(** Force the flow's landmark tree(s) and the destination's ball. *)

val fast_step : fast -> Disco_core.Dataplane.packet -> int -> int
(** One zero-alloc decision at node [u]: divert if the node's cluster or
    landmark table holds the destination, else consume a label; a Steer
    waypoint (resolution owner, then the destination's landmark) loads
    the next leg on arrival.  Walks agree with the route oracles on
    delivery and weighted length (diversion points may differ — every
    divert rides a shortest path). *)
