(** The per-root shortest-path tree store.

    Path-vector convergence leaves every node with a shortest path to every
    landmark; statically that is the landmark's single-source tree.  The
    same store serves every scheme that routes on per-root trees: Disco,
    NDDisco and S4 root it at landmarks, SEATTLE at sources and resolvers
    (its link-state tables), TZ at pivots.  Trees are computed on first
    use and kept — a stretch experiment touches only the roots its sampled
    routes involve — and a filled tree is read in place, with no lock, by
    the compiled data planes ({!row}).  Fills are safe from pool tasks and
    run on Dijkstra workspaces the store lends ({!Disco_util.Pool.Memo}). *)

type t

val create : Disco_graph.Graph.t -> t

val dist : t -> lm:int -> int -> float
(** [d(lm, v)] (= [d(v, lm)], the graph is undirected). *)

val path_from : t -> lm:int -> int -> int list
(** Shortest path [lm; ...; v].
    @raise Invalid_argument if [v] is unreachable. *)

val path_to : t -> int -> lm:int -> int list
(** Shortest path [v; ...; lm]: the reverse walk (§6 notes Disco relies on
    route reversibility). *)

val parents : t -> lm:int -> int array
(** The tree's parent array (predecessor on the path from [lm]; -1 at the
    root and at unreachable nodes).  Forces the tree: the compiled
    forwards' [fprime] calls this for the roots a flow needs. *)

val row : t -> int -> int array
(** [row t root]: the parent array of [root]'s tree if it is filled, else
    [[||]].  Never fills; a lock-free array read, so the compiled steps
    call it per hop (following parents from [v] reads off
    [path_to v ~lm:root] without allocating). *)
