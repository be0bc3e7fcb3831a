module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Gen = Disco_graph.Gen
module Rng = Disco_util.Rng

(* Node id -> (distance, predecessor) over a truncated run's settled set. *)
let lookup_of (t : Dijkstra.truncated) =
  let tbl = Hashtbl.create (2 * Array.length t.order) in
  Array.iteri (fun i v -> Hashtbl.replace tbl v (t.tdist.(i), t.tparent.(i))) t.order;
  fun v -> Hashtbl.find_opt tbl v

(* A weighted diamond:  0 -1- 1 -1- 3,  0 -5- 2 -1- 3. *)
let diamond () =
  let b = Graph.Builder.create 4 in
  Graph.Builder.add_edge b 0 1 1.0;
  Graph.Builder.add_edge b 1 3 1.0;
  Graph.Builder.add_edge b 0 2 5.0;
  Graph.Builder.add_edge b 2 3 1.0;
  Graph.Builder.build b

let test_sssp_diamond () =
  let g = diamond () in
  let r = Dijkstra.sssp g 0 in
  Alcotest.(check (array (float 1e-9))) "distances" [| 0.0; 1.0; 3.0; 2.0 |] r.Dijkstra.dist;
  Alcotest.(check int) "parent of 2 is 3 (via short side)" 3 r.Dijkstra.parent.(2);
  Alcotest.(check int) "source parent" (-1) r.Dijkstra.parent.(0)

let test_distance_early_exit () =
  let g = diamond () in
  Alcotest.(check (float 1e-9)) "0->3" 2.0 (Dijkstra.distance g 0 3);
  Alcotest.(check (float 1e-9)) "self" 0.0 (Dijkstra.distance g 2 2)

let test_unreachable () =
  let b = Graph.Builder.create 3 in
  Graph.Builder.add_edge b 0 1 1.0;
  let g = Graph.Builder.build b in
  let r = Dijkstra.sssp g 0 in
  Alcotest.(check (float 1e-9)) "infinite" infinity r.Dijkstra.dist.(2);
  Alcotest.(check (float 1e-9)) "distance inf" infinity (Dijkstra.distance g 0 2)

let test_k_closest () =
  let g = diamond () in
  let t = Dijkstra.k_closest g 0 3 in
  Alcotest.(check (array int)) "settle order" [| 0; 1; 3 |] t.Dijkstra.order;
  Alcotest.(check (array (float 1e-9))) "distances" [| 0.0; 1.0; 2.0 |] t.Dijkstra.tdist;
  Alcotest.(check int) "parent of 1" 0 t.Dijkstra.tparent.(1);
  Alcotest.(check int) "parent of 3" 1 t.Dijkstra.tparent.(2)

let test_k_closest_caps_at_n () =
  let g = diamond () in
  let t = Dijkstra.k_closest g 0 100 in
  Alcotest.(check int) "all nodes" 4 (Array.length t.Dijkstra.order)

let test_within_radius_strict () =
  let g = diamond () in
  let t = Dijkstra.within_radius g 0 2.0 in
  (* Strictly less than 2.0: nodes 0 (0.0) and 1 (1.0) only. *)
  Alcotest.(check (array int)) "strict ball" [| 0; 1 |] t.Dijkstra.order

let test_multi_source () =
  let g = diamond () in
  let m = Dijkstra.multi_source g [| 1; 2 |] in
  Alcotest.(check (float 1e-9)) "node 0" 1.0 m.Dijkstra.mdist.(0);
  Alcotest.(check int) "node 0 source" 1 m.Dijkstra.msource.(0);
  Alcotest.(check (float 1e-9)) "node 3" 1.0 m.Dijkstra.mdist.(3);
  Alcotest.(check int) "source at source" 2 m.Dijkstra.msource.(2);
  Alcotest.(check (float 1e-9)) "source dist" 0.0 m.Dijkstra.mdist.(2)

let test_path_of_parents () =
  let g = diamond () in
  let r = Dijkstra.sssp g 0 in
  let p = Dijkstra.path_of_parents ~parent:(fun v -> r.Dijkstra.parent.(v)) ~src:0 ~dst:3 in
  Alcotest.(check (list int)) "path" [ 0; 1; 3 ] p

let test_path_length () =
  let g = diamond () in
  Alcotest.(check (float 1e-9)) "length" 7.0 (Dijkstra.path_length g [ 2; 0; 1; 3 ]);
  Alcotest.(check (float 1e-9)) "singleton" 0.0 (Dijkstra.path_length g [ 1 ]);
  Alcotest.check_raises "non-path" (Invalid_argument "Dijkstra.path_length: not a path")
    (fun () -> ignore (Dijkstra.path_length g [ 0; 3 ]))

let test_truncated_lookup () =
  let g = diamond () in
  let t = Dijkstra.k_closest g 0 3 in
  let lookup = lookup_of t in
  Alcotest.(check bool) "settled found" true (lookup 1 = Some (1.0, 0));
  Alcotest.(check bool) "unsettled absent" true (lookup 2 = None)

let test_workspace_reuse () =
  let g = diamond () in
  let ws = Dijkstra.make_workspace g in
  let r1 = Dijkstra.sssp ~ws g 0 in
  let r2 = Dijkstra.sssp ~ws g 2 in
  let r1' = Dijkstra.sssp ~ws g 0 in
  Alcotest.(check (array (float 1e-9))) "idempotent" r1.Dijkstra.dist r1'.Dijkstra.dist;
  Alcotest.(check (float 1e-9)) "second run correct" 1.0 r2.Dijkstra.dist.(3)

let prop_matches_floyd =
  Helpers.qtest "sssp matches Floyd-Warshall" ~count:20 Helpers.seed_arb (fun seed ->
      let g = Helpers.random_graph ~n_min:8 ~n_max:24 seed in
      let oracle = Helpers.floyd g in
      let ok = ref true in
      for s = 0 to Graph.n g - 1 do
        let r = Dijkstra.sssp g s in
        for t = 0 to Graph.n g - 1 do
          if Float.abs (r.Dijkstra.dist.(t) -. oracle.(s).(t)) > 1e-9 then ok := false
        done
      done;
      !ok)

let prop_weighted_matches_floyd =
  Helpers.qtest "sssp matches Floyd on weighted graphs" ~count:10 Helpers.seed_arb
    (fun seed ->
      let g = Helpers.random_weighted_graph seed in
      let oracle = Helpers.floyd g in
      let ok = ref true in
      for s = 0 to min 7 (Graph.n g - 1) do
        let r = Dijkstra.sssp g s in
        for t = 0 to Graph.n g - 1 do
          if
            r.Dijkstra.dist.(t) < infinity
            && Float.abs (r.Dijkstra.dist.(t) -. oracle.(s).(t)) > 1e-9
          then ok := false
        done
      done;
      !ok)

let prop_k_closest_agrees_with_sssp =
  Helpers.qtest "k_closest = k smallest sssp distances" ~count:30 Helpers.seed_arb
    (fun seed ->
      let g = Helpers.random_graph seed in
      let src = seed mod Graph.n g in
      let k = 1 + (seed mod 10) in
      let t = Dijkstra.k_closest g src k in
      let r = Dijkstra.sssp g src in
      let all = Array.init (Graph.n g) (fun v -> r.Dijkstra.dist.(v)) in
      Array.sort compare all;
      let ok = ref (Array.length t.Dijkstra.order = min k (Graph.n g)) in
      Array.iteri
        (fun i v ->
          (* The i-th settled distance equals the i-th smallest distance
             (ties may swap nodes, never distances). *)
          if Float.abs (t.Dijkstra.tdist.(i) -. all.(i)) > 1e-9 then ok := false;
          if Float.abs (t.Dijkstra.tdist.(i) -. r.Dijkstra.dist.(v)) > 1e-9 then
            ok := false)
        t.Dijkstra.order;
      !ok)

let prop_within_radius_agrees_with_sssp =
  Helpers.qtest "within_radius = full sssp restricted to the open ball" ~count:30
    Helpers.seed_arb (fun seed ->
      let g = Helpers.random_weighted_graph seed in
      let src = seed mod Graph.n g in
      let r = Dijkstra.sssp g src in
      (* Radii straddling the distance spectrum, including 0 (empty-but-src
         ball is impossible: d(src,src) = 0 < r fails, so 0 settles nothing
         only if r <= 0; use strictly positive radii plus one exact
         distance value to exercise the strict-< boundary). *)
      let some_dist =
        r.Dijkstra.dist.((src + 1) mod Graph.n g)
      in
      let radii = [ 0.0; some_dist; some_dist +. 1e-9; max 1.0 (2.0 *. some_dist) ] in
      List.for_all
        (fun radius ->
          let t = Dijkstra.within_radius g src radius in
          let lookup = lookup_of t in
          let ok = ref true in
          for v = 0 to Graph.n g - 1 do
            let inside = r.Dijkstra.dist.(v) < radius in
            match lookup v with
            | Some (d, _) ->
                if not inside then ok := false;
                if Float.abs (d -. r.Dijkstra.dist.(v)) > 1e-9 then ok := false
            | None -> if inside then ok := false
          done;
          !ok)
        radii)

let prop_k_closest_weighted_parents =
  Helpers.qtest "truncated parent chains realize full-sssp distances" ~count:30
    Helpers.seed_arb (fun seed ->
      let g = Helpers.random_weighted_graph seed in
      let src = seed mod Graph.n g in
      let k = 1 + (seed mod Graph.n g) in
      let t = Dijkstra.k_closest g src k in
      let r = Dijkstra.sssp g src in
      let lookup = lookup_of t in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          if Float.abs (t.Dijkstra.tdist.(i) -. r.Dijkstra.dist.(v)) > 1e-9 then
            ok := false;
          if v <> src then begin
            (* Predecessors are settled earlier, so the lookup-based parent
               walk must reach src realizing exactly tdist. *)
            let parent w = match lookup w with Some (_, p) -> p | None -> -2 in
            let p = Dijkstra.path_of_parents ~parent ~src ~dst:v in
            if Float.abs (Dijkstra.path_length g p -. t.Dijkstra.tdist.(i)) > 1e-9 then
              ok := false
          end)
        t.Dijkstra.order;
      !ok)

let prop_parents_form_shortest_paths =
  Helpers.qtest "parent chains realize dist" ~count:20 Helpers.seed_arb (fun seed ->
      let g = Helpers.random_weighted_graph seed in
      let src = seed mod Graph.n g in
      let r = Dijkstra.sssp g src in
      let ok = ref true in
      for t = 0 to Graph.n g - 1 do
        if r.Dijkstra.dist.(t) < infinity && t <> src then begin
          let p =
            Dijkstra.path_of_parents ~parent:(fun v -> r.Dijkstra.parent.(v)) ~src ~dst:t
          in
          if Float.abs (Dijkstra.path_length g p -. r.Dijkstra.dist.(t)) > 1e-9 then
            ok := false
        end
      done;
      !ok)

(* The settle order Dijkstra defines, computed the slow, obvious way: a
   list of (distance, push sequence, node) entries, a linear scan for the
   least key (equal distances first-in first-out), stale entries skipped
   on pop. The whole run, as a [truncated]. *)
let reference_run g src =
  let n = Graph.n g in
  let dist = Array.make n infinity and par = Array.make n (-1) in
  let settled = Array.make n false in
  let queue = ref [ (0.0, 0, src) ] and next = ref 1 and order = ref [] in
  dist.(src) <- 0.0;
  let before (d1, s1, _) (d2, s2, _) = d1 < d2 || (d1 = d2 && s1 < s2) in
  while !queue <> [] do
    let best =
      List.fold_left (fun b e -> if before e b then e else b) (List.hd !queue) !queue
    in
    queue := List.filter (fun e -> e != best) !queue;
    let _, _, u = best in
    if not settled.(u) then begin
      settled.(u) <- true;
      order := u :: !order;
      List.iter
        (fun (v, w) ->
          let nd = dist.(u) +. w in
          if (not settled.(v)) && nd < dist.(v) then begin
            dist.(v) <- nd;
            par.(v) <- u;
            queue := (nd, !next, v) :: !queue;
            incr next
          end)
        (Graph.neighbors g u)
    end
  done;
  let order = Array.of_list (List.rev !order) in
  {
    Dijkstra.source = src;
    order;
    tdist = Array.map (fun v -> dist.(v)) order;
    tparent = Array.map (fun v -> par.(v)) order;
  }

(* [t] is the first [len] entries of [full], exactly: same nodes in the
   same order, same distances and predecessors. *)
let check_prefix what (full : Dijkstra.truncated) len (t : Dijkstra.truncated) =
  let sub a = Array.sub a 0 len in
  Alcotest.(check (array int)) (what ^ " order") (sub full.order) t.order;
  Alcotest.(check (array (float 0.0))) (what ^ " tdist") (sub full.tdist) t.tdist;
  Alcotest.(check (array int)) (what ^ " tparent") (sub full.tparent) t.tparent

(* [g]'s edges with weights drawn from {1, 2, 3}: ties, and nodes whose
   queued distance shortens to one another node already holds. *)
let small_int_weights ~seed g =
  let rng = Rng.create seed in
  let b = Graph.Builder.create (Graph.n g) in
  List.iter
    (fun (u, v, _) -> Graph.Builder.add_edge b u v (float_of_int (1 + Rng.int rng 3)))
    (Graph.edges g);
  Graph.Builder.build b

(* Small GLP graphs (unit weights, hubs, many distance ties), the same
   with small integer weights, and weighted geometric graphs. *)
let prefix_graphs () =
  let glp seed = Gen.glp ~rng:(Rng.create seed) ~n:150 () in
  List.map (fun seed -> ("glp", glp seed)) [ 3; 11 ]
  @ List.map (fun seed -> ("glp 1-3", small_int_weights ~seed (glp seed))) [ 3; 11 ]
  @ List.map (fun seed -> ("weighted", Helpers.random_weighted_graph seed)) [ 7; 8 ]

(* k_closest and within_radius return exactly a prefix of the unbounded
   run, ties included: every source of every graph, with k = 1, k cutting
   between two equal distances, k >= n, and radii equal to exact
   distances. The unbounded run itself matches the reference order. *)
let test_truncated_prefix () =
  List.iter
    (fun (kind, g) ->
      let n = Graph.n g in
      let ws = Dijkstra.make_workspace g in
      for s = 0 to n - 1 do
        let what = Printf.sprintf "%s n=%d src=%d" kind n s in
        let full = Dijkstra.within_radius ~ws g s infinity in
        check_prefix (what ^ " full run") (reference_run g s) n full;
        let len = Array.length full.order in
        let tie =
          let rec find i =
            if i >= len then 1 else if full.tdist.(i) = full.tdist.(i - 1) then i else find (i + 1)
          in
          find 1
        in
        List.iter
          (fun k ->
            check_prefix
              (Printf.sprintf "%s k=%d" what k)
              full (min k len) (Dijkstra.k_closest ~ws g s k))
          [ 1; 2; tie; tie + 1; len / 2; len - 1; len; n + 3 ];
        List.iter
          (fun r ->
            let inside = Array.fold_left (fun c d -> if d < r then c + 1 else c) 0 full.tdist in
            check_prefix
              (Printf.sprintf "%s r=%g" what r)
              full inside (Dijkstra.within_radius ~ws g s r))
          [ 0.0; full.tdist.(tie); full.tdist.(len / 2); full.tdist.(len - 1); full.tdist.(len - 1) +. 1.0 ]
      done)
    (prefix_graphs ())

(* Words allocated by [f ()], minor plus direct-to-major, less what the
   measuring itself costs. OCaml 5 credits direct major allocations
   (blocks over 256 words) to these counters lazily, so callers keep the
   measured results small enough for the minor heap, where the count is
   exact. *)
let allocated_words f =
  let words () =
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let measure f =
    let w0 = words () in
    let r = f () in
    (r, int_of_float (words () -. w0))
  in
  let (), overhead = measure ignore in
  let r, w = measure f in
  (r, w - overhead)

(* A hub with [leaves] leaves and a ring through them, so a search from a
   leaf scans the hub's whole row. *)
let hub_graph leaves =
  let b = Graph.Builder.create (leaves + 1) in
  for i = 1 to leaves do
    Graph.Builder.add_edge b 0 i 1.0;
    Graph.Builder.add_edge b i (1 + (i mod leaves)) 0.5
  done;
  Graph.Builder.build b

let geometric ~seed n = Gen.geometric ~rng:(Rng.create seed) ~n ~avg_degree:8.0

(* On a warmed workspace a run allocates its result plus a constant: no
   boxed frontier entries, no per-edge closures. [sssp] is measured where
   its two n-sized arrays stay on the minor heap; [k_closest] where the
   hub's degree dwarfs k. *)
let test_allocation_bound () =
  let slack = 16 in
  let sources g = [ 0; 1; Graph.n g / 2 ] in
  List.iter
    (fun (kind, g) ->
      let n = Graph.n g in
      let ws = Dijkstra.make_workspace g in
      ignore (Dijkstra.sssp ~ws g 0 : Dijkstra.sssp);
      List.iter
        (fun s ->
          let _, words = allocated_words (fun () -> Dijkstra.sssp ~ws g s) in
          let bound = (2 * (n + 1)) + slack in
          if words > bound then
            Alcotest.failf "%s sssp from %d: %d words > %d" kind s words bound)
        (sources g))
    [ ("hub", hub_graph 200); ("weighted", geometric ~seed:5 240) ];
  List.iter
    (fun (kind, g) ->
      let ws = Dijkstra.make_workspace g in
      ignore (Dijkstra.k_closest ~ws g 0 64 : Dijkstra.truncated);
      List.iter
        (fun s ->
          List.iter
            (fun k ->
              let t, words = allocated_words (fun () -> Dijkstra.k_closest ~ws g s k) in
              let bound = (3 * (Array.length t.Dijkstra.order + 1)) + 5 + slack in
              if words > bound then
                Alcotest.failf "%s k_closest from %d, k=%d: %d words > %d" kind s k words
                  bound)
            [ 1; 8; 64 ])
        (sources g))
    [ ("hub", hub_graph 3000); ("weighted", geometric ~seed:5 2000) ]

let suite =
  [
    Alcotest.test_case "sssp diamond" `Quick test_sssp_diamond;
    Alcotest.test_case "distance early exit" `Quick test_distance_early_exit;
    Alcotest.test_case "unreachable" `Quick test_unreachable;
    Alcotest.test_case "k_closest" `Quick test_k_closest;
    Alcotest.test_case "k_closest caps at n" `Quick test_k_closest_caps_at_n;
    Alcotest.test_case "within_radius strict" `Quick test_within_radius_strict;
    Alcotest.test_case "multi_source" `Quick test_multi_source;
    Alcotest.test_case "path_of_parents" `Quick test_path_of_parents;
    Alcotest.test_case "path_length" `Quick test_path_length;
    Alcotest.test_case "truncated_lookup" `Quick test_truncated_lookup;
    Alcotest.test_case "workspace reuse" `Quick test_workspace_reuse;
    Alcotest.test_case "truncated runs are exact prefixes" `Quick test_truncated_prefix;
    Alcotest.test_case "warm runs allocate only results" `Quick test_allocation_bound;
    prop_matches_floyd;
    prop_weighted_matches_floyd;
    prop_k_closest_agrees_with_sssp;
    prop_within_radius_agrees_with_sssp;
    prop_k_closest_weighted_parents;
    prop_parents_form_shortest_paths;
  ]
