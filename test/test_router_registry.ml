(* The ROUTER contract, enforced on every registered scheme at once: valid
   paths (start at src, end at dst, hop along edges), stretch >= 1 against
   the Dijkstra oracle, and non-negative per-node state. *)

module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Telemetry = Disco_util.Telemetry
module Routers = Disco_experiments.Routers
module Protocol = Disco_experiments.Protocol
module Testbed = Disco_experiments.Testbed

let testbed =
  lazy (Testbed.make ~seed:7 Gen.Geometric ~n:96)

let expected_names =
  [ "pathvector"; "seattle"; "bvr"; "vrr"; "s4"; "nddisco"; "disco"; "tz" ]

let test_registry_contents () =
  let names = Routers.names () in
  Alcotest.(check (list string)) "all built-in schemes registered" expected_names names;
  List.iter
    (fun name ->
      match Routers.find name with
      | Some p -> Alcotest.(check string) "find returns the right module" name (Protocol.name_of p)
      | None -> Alcotest.failf "Routers.find %S returned None" name)
    names;
  Alcotest.(check bool) "find on a junk name misses" true (Routers.find "nonesuch" = None)

let test_duplicate_rejected () =
  let disco = Routers.find_exn "disco" in
  Alcotest.check_raises "duplicate registration rejected"
    (Invalid_argument "Protocol.register: duplicate router \"disco\"")
    (fun () -> Protocol.register disco)

(* One pass over sampled pairs per router, through both halves of the
   contract: paths walked on the compiled data plane and oracle routes
   are all valid and no faster than the shortest path. *)
let check_router packed () =
  let module R = (val packed : Protocol.ROUTER) in
  let module Walk = Disco_experiments.Walk in
  let tb = Lazy.force testbed in
  let g = tb.Testbed.graph in
  let n = Graph.n g in
  let router = R.build tb in
  let walker = Walk.compile (module R) router ~graph:g in
  let sc = Walk.scratch g in
  let tel = Telemetry.create () in
  for v = 0 to n - 1 do
    if R.state_entries router v < 0 then
      Alcotest.failf "%s: negative state at node %d" R.name v
  done;
  let rng = Rng.create 123 in
  let ws = Dijkstra.make_workspace g in
  let routed = ref 0 in
  for _ = 1 to 40 do
    let src = Rng.int rng n in
    let sp = Dijkstra.sssp ~ws g src in
    for _ = 1 to 3 do
      let dst = Rng.int rng n in
      let dist = sp.Dijkstra.dist.(dst) in
      if src <> dst && dist > 0.0 && dist < infinity then
        List.iter
          (fun (label, route) ->
            match route router ~tel ~src ~dst with
            | None -> () (* a failure is legal (BVR local minima); counted via tel *)
            | Some path ->
                incr routed;
                Helpers.check_path g ~src ~dst path;
                let stretch = Helpers.path_len g path /. dist in
                if stretch < 1.0 -. 1e-9 then
                  Alcotest.failf "%s %s: stretch %.4f < 1 for %d->%d" R.name label
                    stretch src dst)
          [
            ("walk-first", fun _ -> Walk.route walker sc Walk.First);
            ("walk-later", fun _ -> Walk.route walker sc Walk.Later);
            ("oracle-first", R.oracle_first);
            ("oracle-later", R.oracle_later);
          ]
    done
  done;
  if !routed = 0 then Alcotest.failf "%s: no pair routed at all" R.name;
  (* The walker really ran: the per-hop counters moved. *)
  if tel.Telemetry.packets_walked = 0 || tel.Telemetry.hops_forwarded = 0 then
    Alcotest.failf "%s: data-plane counters never moved" R.name

let suite =
  [
    Alcotest.test_case "registry contents" `Quick test_registry_contents;
    Alcotest.test_case "duplicate rejected" `Quick test_duplicate_rejected;
  ]
  @ List.map
      (fun p ->
        Alcotest.test_case
          (Printf.sprintf "contract: %s" (Protocol.name_of p))
          `Quick (check_router p))
      (Routers.all ())
