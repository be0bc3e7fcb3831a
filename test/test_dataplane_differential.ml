(* Walk ≡ oracle, for every registered scheme, across topology families
   and seeds: the compiled hop-by-hop data plane and the closed-form route
   computation must agree on the delivery verdict; delivered walks must
   reproduce the oracle's node sequence (schemes whose forwarding replays
   the oracle step for step) or its weighted length (the shortcut schemes,
   whose walks may divert at a different-but-equivalent point). *)

module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Rng = Disco_util.Rng
module Telemetry = Disco_util.Telemetry
module D = Disco_core.Dataplane
module Protocol = Disco_experiments.Protocol
module Testbed = Disco_experiments.Testbed
module Routers = Disco_experiments.Routers
module Walk = Disco_experiments.Walk
module Spec = Disco_check.Spec

let pairs_per_world = 40

let check_pair (module R : Protocol.ROUTER) ~spec ~g ~phase ~oracle sc ~src ~dst =
  let ctx = Printf.sprintf "%s %s %d->%d" R.name phase src dst in
  if Walk.drop sc = D.drop_protocol then Alcotest.failf "%s: protocol error" ctx;
  match (oracle, Walk.delivered sc) with
  | None, false -> ()
  | None, true -> Alcotest.failf "%s: walk delivered, oracle found no route" ctx
  | Some _, false -> Alcotest.failf "%s: oracle routes, walk dropped" ctx
  | Some path, true ->
      let walked = Walk.path sc in
      Helpers.check_path g ~src ~dst walked;
      if spec.Spec.walk_exact then begin
        if walked <> path then
          Alcotest.failf "%s: walk path differs from the oracle's" ctx
      end
      else begin
        let lw = Helpers.path_len g walked
        and lo = Helpers.path_len g path in
        if Float.abs (lw -. lo) > 1e-6 then
          Alcotest.failf "%s: walk length %.6f, oracle length %.6f" ctx lw lo
      end

let check_world kind seed () =
  let tb = Testbed.make ~seed kind ~n:64 in
  let g = tb.Testbed.graph in
  let n = Graph.n g in
  let rng = Rng.create (seed + 1000) in
  let worklist =
    List.init pairs_per_world (fun _ -> (Rng.int rng n, Rng.int rng n))
    |> List.filter (fun (s, t) -> s <> t)
  in
  List.iter
    (fun packed ->
      let module R = (val packed : Protocol.ROUTER) in
      let spec = Spec.find R.name in
      let rt = R.build tb in
      let walker = Walk.compile (module R) rt ~graph:g in
      let sc = Walk.scratch g in
      let tel = Telemetry.create () in
      List.iter
        (fun (src, dst) ->
          Walk.run walker sc ~tel Walk.First ~src ~dst;
          check_pair (module R) ~spec ~g ~phase:"first"
            ~oracle:(R.oracle_first rt ~tel ~src ~dst)
            sc ~src ~dst;
          Walk.run walker sc ~tel Walk.Later ~src ~dst;
          check_pair (module R) ~spec ~g ~phase:"later"
            ~oracle:(R.oracle_later rt ~tel ~src ~dst)
            sc ~src ~dst)
        worklist;
      (* The walker genuinely ran this scheme's data plane. *)
      if tel.Telemetry.packets_walked = 0 then
        Alcotest.failf "%s: no packet walked" R.name)
    (Routers.all ())

let suite =
  List.concat_map
    (fun kind ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "walk = oracle on %s seed %d" (Gen.kind_name kind)
               seed)
            `Quick (check_world kind seed))
        [ 3; 11 ])
    [ Gen.Gnm; Gen.Geometric; Gen.As_level ]
