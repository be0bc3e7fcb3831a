module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Telemetry = Disco_util.Telemetry
module Nddisco = Disco_core.Nddisco
module Vicinity = Disco_core.Vicinity
module Landmarks = Disco_core.Landmarks
module Params = Disco_core.Params
module Landmark_churn = Disco_core.Landmark_churn
module Dataplane = Disco_core.Dataplane
module Protocol = Disco_experiments.Protocol
module Testbed = Disco_experiments.Testbed
module Routers = Disco_experiments.Routers
module Walk = Disco_experiments.Walk

type outcome = {
  n : int;
  pairs_checked : int;
  schemes : string list;
  route_failures : int;
  violations : Violation.t list;
}

let failed o = o.violations <> []

(* Float slop for stretch comparisons: path lengths and oracle distances
   are sums of the same weights in different orders. *)
let eps = 1e-6

let coverage (nd : Nddisco.t) =
  let lm = nd.Nddisco.landmarks in
  let n = Graph.n nd.Nddisco.graph in
  let covered v =
    lm.Landmarks.is_landmark.(v)
    || begin
         let view = Vicinity.view nd.Nddisco.vicinity v in
         Array.exists (fun w -> lm.Landmarks.is_landmark.(w)) view.Vicinity.members
       end
  in
  let ok = ref true in
  for v = 0 to n - 1 do
    if !ok && not (covered v) then ok := false
  done;
  !ok

(* A route must be a real walk from src to dst over graph edges; its
   length is the sum of the edge weights it traverses. *)
let validate g ~src ~dst path =
  match path with
  | [] -> Error "empty route"
  | first :: _ when first <> src -> Error (Printf.sprintf "starts at %d, not src" first)
  | first :: rest ->
      let rec walk prev len = function
        | [] -> if prev = dst then Ok len else Error (Printf.sprintf "ends at %d, not dst" prev)
        | hop :: tl -> (
            match Graph.edge_weight g prev hop with
            | None -> Error (Printf.sprintf "no edge %d-%d" prev hop)
            | Some w -> walk hop (len +. w) tl)
      in
      walk first 0.0 rest

(* One data-plane walk, as the checks see it. *)
type walked = {
  w_path : int list;  (* nodes traversed, source first *)
  w_delivered : bool;
  w_drop : int;  (* a Dataplane drop code *)
}

type pair_result = {
  src : int;
  dst : int;
  first : int list option;  (** oracle's first-packet route *)
  later : int list option;  (** oracle's post-handshake route *)
  walk_first : walked;  (** data plane's first packet *)
  walk_later : walked;
  first_fallback : bool;
      (** the first-packet walk detoured via the resolution database *)
}

type measurement = {
  results : pair_result list;
  states : int array;
  tel : Telemetry.t;
}

(* Each pair is measured twice over: the closed-form oracle route and a
   hop-by-hop walk of the scheme's compiled data plane. The runner then
   holds the two against each other (check_walk) on top of the
   oracle-side invariants. *)
let measure (packed : Protocol.packed) tb pairs =
  let module R = (val packed : Protocol.ROUTER) in
  let tel = Telemetry.create () in
  let rt = R.build tb in
  let graph = tb.Testbed.graph in
  let walker = Walk.compile (module R) rt ~graph in
  let sc = Walk.scratch graph in
  let walk kind ~src ~dst =
    Walk.run walker sc ~tel kind ~src ~dst;
    let w =
      {
        w_path = Walk.path sc;
        w_delivered = Walk.delivered sc;
        w_drop = Walk.drop sc;
      }
    in
    (w, Walk.fell_back sc)
  in
  let results =
    List.map
      (fun (src, dst) ->
        let first = R.oracle_first rt ~tel ~src ~dst in
        let later = R.oracle_later rt ~tel ~src ~dst in
        let walk_first, first_fallback = walk Walk.First ~src ~dst in
        let walk_later, _ = walk Walk.Later ~src ~dst in
        { src; dst; first; later; walk_first; walk_later; first_fallback })
      pairs
  in
  let n = Graph.n graph in
  let states = Array.init n (fun v -> R.state_entries rt v) in
  { results; states; tel }

let oracle_distances g pairs =
  let ws = Dijkstra.make_workspace g in
  let cache = Hashtbl.create 16 in
  List.map
    (fun (src, dst) ->
      let sp =
        match Hashtbl.find_opt cache src with
        | Some sp -> sp
        | None ->
            let sp = Dijkstra.sssp ~ws g src in
            Hashtbl.add cache src sp;
            sp
      in
      sp.Dijkstra.dist.(dst))
    pairs

let check_phase ~violations ~scheme ~spec ~covered g ~phase ~oracle pr route
    ~fallback =
  let add kind = violations := { Violation.scheme; kind } :: !violations in
  let bound =
    match phase with "first" -> spec.Spec.first_bound | _ -> spec.Spec.later_bound
  in
  let bound_applies =
    ((not spec.Spec.needs_coverage) || covered)
    && not (String.equal phase "first" && spec.Spec.skip_fallback_first && fallback)
  in
  match route with
  | None ->
      if spec.Spec.guaranteed_delivery && oracle < infinity then
        add (Violation.Delivery_failure { phase; src = pr.src; dst = pr.dst })
  | Some path -> (
      match validate g ~src:pr.src ~dst:pr.dst path with
      | Error reason ->
          add (Violation.Invalid_path { phase; src = pr.src; dst = pr.dst; reason })
      | Ok len ->
          let stretch = len /. oracle in
          if stretch < 1.0 -. eps then
            add (Violation.Beats_oracle { phase; src = pr.src; dst = pr.dst; stretch });
          (match bound with
          | Some b when bound_applies && stretch > b +. eps ->
              add
                (Violation.Stretch_exceeded
                   { phase; src = pr.src; dst = pr.dst; stretch; bound = b })
          | _ -> ()))

(* Walk ≡ oracle, per scheme. Both faces must agree on the delivery
   verdict; when both deliver, [walk_exact] schemes must reproduce the
   oracle's node sequence and the rest (the shortcut schemes) must land on
   the same weighted length — their walks may divert from knowledge at a
   different-but-equivalent point, but every divert rides a shortest path.
   A protocol-error drop is a bug regardless of what the oracle says: the
   compiled forward broke the data-plane contract itself. *)
let check_walk ~violations ~scheme ~spec g ~phase pr ~oracle_route (w : walked) =
  let add kind = violations := { Violation.scheme; kind } :: !violations in
  let src = pr.src and dst = pr.dst in
  let why = Dataplane.drop_to_string w.w_drop in
  if w.w_drop = Dataplane.drop_protocol then
    add (Violation.Dataplane_error { phase; src; dst; detail = why })
  else
    match (oracle_route, w.w_delivered) with
    | None, false -> ()
    | None, true ->
        add
          (Violation.Walk_divergence
             { phase; src; dst; detail = "walk delivered but the oracle found no route" })
    | Some _, false ->
        add
          (Violation.Walk_divergence
             {
               phase;
               src;
               dst;
               detail = Printf.sprintf "oracle routes but the walk dropped (%s)" why;
             })
    | Some path, true ->
        (* The walker validated every hop as a graph edge; both lengths
           exist. *)
        let len_walk = Dijkstra.path_length g w.w_path in
        let len_oracle = Dijkstra.path_length g path in
        if spec.Spec.walk_exact && w.w_path <> path then
          add
            (Violation.Walk_divergence
               {
                 phase;
                 src;
                 dst;
                 detail =
                   Printf.sprintf "walk path differs from the oracle's (%d vs %d hops)"
                     (List.length w.w_path - 1)
                     (List.length path - 1);
               })
        else if Float.abs (len_walk -. len_oracle) > eps then
          add
            (Violation.Walk_divergence
               {
                 phase;
                 src;
                 dst;
                 detail =
                   Printf.sprintf "walk length %.6f, oracle length %.6f" len_walk
                     len_oracle;
               })

let check_states ~violations ~scheme ~spec ~n states =
  let add kind = violations := { Violation.scheme; kind } :: !violations in
  (* Report only the worst offending node per kind, not one violation per
     node: the shrinker wants a signal, not n copies of it. *)
  let worst_neg = ref None and worst_over = ref None in
  Array.iteri
    (fun node entries ->
      if entries < 0 then
        match !worst_neg with
        | Some (_, e) when e <= entries -> ()
        | _ -> worst_neg := Some (node, entries)
      else
        match spec.Spec.state_bound with
        | None -> ()
        | Some f ->
            let bound = f ~n in
            if float_of_int entries > bound +. eps then
              match !worst_over with
              | Some (_, e, _) when e >= entries -> ()
              | _ -> worst_over := Some (node, entries, bound))
    states;
  (match !worst_neg with
  | Some (node, entries) -> add (Violation.Negative_state { node; entries })
  | None -> ());
  match !worst_over with
  | Some (node, entries, bound) -> add (Violation.State_exceeded { node; entries; bound })
  | None -> ()

let routes_of m = List.map (fun pr -> (pr.first, pr.later)) m.results

let walks_of m = List.map (fun pr -> (pr.walk_first, pr.walk_later)) m.results

let check_determinism ~violations ~scheme m m' =
  let add what =
    violations := { Violation.scheme; kind = Violation.Nondeterministic { what } } :: !violations
  in
  if routes_of m <> routes_of m' then add "routes";
  if walks_of m <> walks_of m' then add "data-plane walks";
  if m.states <> m'.states then add "state tables";
  (* The full snapshot: the walk/hop counters must reproduce bit for bit
     along with the oracle-side ones. *)
  if Telemetry.snapshot m.tel <> Telemetry.snapshot m'.tel then
    add "telemetry counters"

let check_differential ~violations disco nd =
  List.iter2
    (fun (d : pair_result) (x : pair_result) ->
      if d.later <> x.later then
        let hops = function None -> -1 | Some p -> List.length p in
        violations :=
          {
            Violation.scheme = "disco";
            kind =
              Violation.Differential_mismatch
                {
                  other = "nddisco";
                  src = d.src;
                  dst = d.dst;
                  detail =
                    Printf.sprintf "later routes differ (%d vs %d hops)"
                      (hops d.later) (hops x.later);
                };
          }
          :: !violations)
    disco.results nd.results

(* Hysteresis flips only on a >= 2x size change since a node's own last
   re-draw. A schedule confined to [0.75, 1.33] x n0 keeps every ratio —
   including for nodes created mid-schedule — below 1.33 / 0.75 < 2, so
   any flip at all is a bug, deterministically. *)
let check_churn ~violations (sc : Scenario.t) ~n =
  if sc.Scenario.churn_steps > 0 then begin
    let sched = Rng.create (Rng.derive sc.Scenario.seed Scenario.churn_schedule_purpose) in
    let pop = Rng.create (Rng.derive sc.Scenario.seed Scenario.churn_population_purpose) in
    let ch =
      Landmark_churn.create ~rng:pop ~params:Params.default ~hysteresis:true ~n0:n
    in
    let flipped = ref None in
    for step = 1 to sc.Scenario.churn_steps do
      let f = 0.75 +. Rng.float sched 0.58 in
      let n' = max 4 (int_of_float (Float.round (float_of_int n *. f))) in
      let flips = Landmark_churn.observe ch ~n:n' in
      if flips > 0 && !flipped = None then flipped := Some (step, n', flips)
    done;
    match !flipped with
    | Some (step, n', flips) ->
        violations :=
          {
            Violation.scheme = "landmark-churn";
            kind =
              Violation.Churn_violation
                {
                  detail =
                    Printf.sprintf
                      "%d flips at step %d (n %d -> %d, inside the sub-2x band)"
                      flips step n n';
                };
          }
          :: !violations
    | None -> ()
  end

let run ?routers ?(spec_of = Spec.find) (sc : Scenario.t) =
  let routers = match routers with Some r -> r | None -> Routers.all () in
  let g = Scenario.graph sc in
  let n = Graph.n g in
  let pairs = Scenario.draw_pairs sc g in
  let tb = Testbed.of_graph ~seed:sc.Scenario.seed g in
  let violations = ref [] in
  (* Second world, built from nothing but the scenario: everything the
     first build produced must reproduce bit-for-bit. *)
  let g' = Scenario.graph sc in
  if Graph.edges g <> Graph.edges g' then
    violations :=
      { Violation.scheme = "scenario"; kind = Violation.Nondeterministic { what = "topology" } }
      :: !violations;
  let pairs' = Scenario.draw_pairs sc g' in
  if pairs <> pairs' then
    violations :=
      { Violation.scheme = "scenario"; kind = Violation.Nondeterministic { what = "workload" } }
      :: !violations;
  let tb' = Testbed.of_graph ~seed:sc.Scenario.seed g' in
  let covered = coverage (Testbed.nd tb) in
  let oracles = oracle_distances g pairs in
  let route_failures = ref 0 in
  let measured =
    List.map
      (fun packed ->
        let scheme = Protocol.name_of packed in
        let spec = spec_of scheme in
        let m = measure packed tb pairs in
        let m' = measure packed tb' pairs in
        List.iter2
          (fun pr oracle ->
            let count_failure route =
              if route = None && not spec.Spec.guaranteed_delivery then incr route_failures
            in
            count_failure pr.first;
            count_failure pr.later;
            check_phase ~violations ~scheme ~spec ~covered g ~phase:"first" ~oracle pr
              pr.first ~fallback:pr.first_fallback;
            check_phase ~violations ~scheme ~spec ~covered g ~phase:"later" ~oracle pr
              pr.later ~fallback:false;
            check_walk ~violations ~scheme ~spec g ~phase:"first" pr
              ~oracle_route:pr.first pr.walk_first;
            check_walk ~violations ~scheme ~spec g ~phase:"later" pr
              ~oracle_route:pr.later pr.walk_later)
          m.results oracles;
        check_states ~violations ~scheme ~spec ~n m.states;
        check_determinism ~violations ~scheme m m';
        (scheme, m))
      routers
  in
  (match (List.assoc_opt "disco" measured, List.assoc_opt "nddisco" measured) with
  | Some d, Some x -> check_differential ~violations d x
  | _ -> ());
  check_churn ~violations sc ~n;
  {
    n;
    pairs_checked = List.length pairs;
    schemes = List.map fst measured;
    route_failures = !route_failures;
    violations = List.rev !violations;
  }
