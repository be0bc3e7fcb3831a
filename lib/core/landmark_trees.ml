module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Pool = Disco_util.Pool

(* Lazily computed shortest-path trees, one per root a route touches
   (landmarks for Disco, NDDisco and S4; sources and resolvers for
   SEATTLE; pivots for TZ).  The store is shared by every query handle of
   a router — it is what makes routes on converged state cheap — so it
   must tolerate concurrent fills from pool tasks: [Pool.Memo] publishes
   each tree once, and the SSSP is a deterministic function of the root,
   so a lost fill race converges on an equal tree.  Fills run on
   workspaces lent by the store; [Dijkstra.sssp] copies the result out,
   so stored trees are workspace-independent. *)

type t = {
  graph : Graph.t;
  store : (Dijkstra.sssp, Dijkstra.workspace) Pool.Memo.t;
}

let unfilled = { Dijkstra.dist = [||]; parent = [||] }

let create graph =
  {
    graph;
    store =
      Pool.Memo.create (Graph.n graph) ~empty:unfilled ~scratch:(fun () ->
          Dijkstra.make_workspace graph);
  }

let tree t root =
  Pool.Memo.find_or_add t.store root (fun ws -> Dijkstra.sssp ~ws t.graph root)

let dist t ~lm v = (tree t lm).Dijkstra.dist.(v)

let path_from t ~lm v =
  let s = tree t lm in
  if s.Dijkstra.dist.(v) = infinity then
    invalid_arg "Landmark_trees.path_from: unreachable";
  Dijkstra.path_of_parents
    ~parent:(fun u -> s.Dijkstra.parent.(u))
    ~src:lm ~dst:v

let path_to t v ~lm = List.rev (path_from t ~lm v)
let parents t ~lm = (tree t lm).Dijkstra.parent
let row t root = (Pool.Memo.get t.store root).Dijkstra.parent
