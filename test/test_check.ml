(* The disco-check harness itself: a bounded all-scheme run stays clean,
   a deliberately broken router is caught and shrunk to a replayable
   counterexample, and scenarios replay bit-for-bit. *)

module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Protocol = Disco_experiments.Protocol
module Testbed = Disco_experiments.Testbed
module Routers = Disco_experiments.Routers
module Scenario = Disco_check.Scenario
module Spec = Disco_check.Spec
module Runner = Disco_check.Runner
module Harness = Disco_check.Harness
module Violation = Disco_check.Violation

let test_bounded_run_passes () =
  let s = Harness.run_cases ~run_seed:42 ~cases:15 ~max_nodes:48 () in
  if not (Harness.passed s) then Alcotest.fail (Harness.report s);
  Alcotest.(check int) "all schemes ran"
    (List.length (Routers.names ()))
    (List.length s.Harness.schemes)

(* A router that routes correctly but takes a pointless neighbor bounce on
   the first packet, paired with a spec that (correctly) brands it
   stretch-1: disco-check must convict it. Its data plane replays the
   oracle route label by label (delivering only when the labels run out,
   so the bounce is walked in full), keeping walk ≡ oracle clean — the
   stretch bound is the only invariant it breaks. *)
module Detour_router = struct
  module D = Disco_core.Dataplane

  type t = { graph : Graph.t; ws : Dijkstra.workspace }

  let name = "detour"
  let flat_names = "test fixture"

  let build (tb : Testbed.t) =
    let graph = tb.Testbed.graph in
    { graph; ws = Dijkstra.make_workspace graph }

  let shortest t ~src ~dst =
    let sp = Dijkstra.sssp ~ws:t.ws t.graph src in
    if sp.Dijkstra.dist.(dst) = infinity then None
    else
      Some
        (Dijkstra.path_of_parents
           ~parent:(fun v -> sp.Dijkstra.parent.(v))
           ~src ~dst)

  let detour t ~src ~dst =
    match shortest t ~src ~dst with
    | None -> None
    | Some path ->
        let nbr, _ = Graph.nth_neighbor t.graph src 0 in
        Some (src :: nbr :: path)

  let oracle_first t ~tel:_ ~src ~dst = detour t ~src ~dst
  let oracle_later t ~tel:_ ~src ~dst = shortest t ~src ~dst
  let ttl_factor = 4

  let header_of ~dst = function
    | Some (_ :: rest) -> { (D.plain ~dst D.Carry) with D.labels = rest }
    | _ -> D.plain ~dst D.Carry

  let first_header t ~tel:_ ~src ~dst = header_of ~dst (detour t ~src ~dst)
  let later_header t ~tel:_ ~src ~dst = header_of ~dst (shortest t ~src ~dst)

  let state_entries _ _ = 0
  let state_bytes _ _ = 0.0
  let fork t = { t with ws = Dijkstra.make_workspace t.graph }

  (* Consume labels before the deliver check, so the detour bounce is
     walked in full. *)
  let compile _t =
    {
      D.fstep =
        (fun (pkt : D.packet) u ->
          if D.route_len pkt > 0 then D.route_next pkt
          else if u = pkt.D.pdst then D.fast_deliver
          else D.fast_no_route);
      D.fprime = (fun ~src:_ ~dst:_ -> ());
    }
end

let detour_spec =
  {
    (Spec.permissive "detour") with
    Spec.guaranteed_delivery = true;
    first_bound = Some 1.0;
    later_bound = Some 1.0;
  }

let fixture_spec_of s = if String.equal s "detour" then detour_spec else Spec.find s

let test_broken_router_caught () =
  let routers = [ Routers.find_exn "pathvector"; (module Detour_router : Protocol.ROUTER) ] in
  let s =
    Harness.run_cases ~routers ~spec_of:fixture_spec_of ~run_seed:5 ~cases:3
      ~max_nodes:32 ()
  in
  Alcotest.(check bool) "run fails" false (Harness.passed s);
  let cx =
    match s.Harness.counterexamples with
    | [] -> Alcotest.fail "no counterexample reported"
    | cx :: _ -> cx
  in
  (* Every violation belongs to the broken router; the honest reference
     scheme in the same run stays clean. *)
  Alcotest.(check bool) "violations exist" true (cx.Harness.violations <> []);
  List.iter
    (fun v ->
      Alcotest.(check string) "convicted scheme" "detour" v.Violation.scheme;
      match v.Violation.kind with
      | Violation.Stretch_exceeded { phase; _ } ->
          Alcotest.(check string) "first-packet bound" "first" phase
      | k -> Alcotest.failf "unexpected violation kind %s" (Violation.describe { v with Violation.kind = k }))
    cx.Harness.violations;
  (* Shrinking made progress and the result replays bit-for-bit. *)
  let orig = cx.Harness.original and min_ = cx.Harness.minimized in
  Alcotest.(check bool) "shrunk no larger" true
    (min_.Scenario.n <= orig.Scenario.n && min_.Scenario.pairs <= orig.Scenario.pairs);
  Alcotest.(check int) "seed preserved" orig.Scenario.seed min_.Scenario.seed;
  (match Scenario.of_string (Scenario.to_string min_) with
  | Ok rt -> Alcotest.(check bool) "textual form replays" true (rt = min_)
  | Error e -> Alcotest.failf "minimized scenario does not parse: %s" e);
  let rerun = Runner.run ~routers ~spec_of:fixture_spec_of min_ in
  Alcotest.(check bool) "minimized scenario still fails" true (Runner.failed rerun)

let prop_scenario_string_roundtrip =
  Helpers.qtest "scenario text form round-trips" ~count:100 Helpers.seed_arb
    (fun seed ->
      let sc = Scenario.generate ~run_seed:seed ~case:(seed mod 17) ~max_nodes:200 in
      Scenario.of_string (Scenario.to_string sc) = Ok sc)

let test_coverage_exercised () =
  (* The Disco/NDDisco stretch bounds only fire under coverage; make sure
     generated scenarios actually reach that state, or the harness would
     vacuously pass. *)
  let covered = ref 0 in
  for case = 0 to 9 do
    let sc = Scenario.generate ~run_seed:424242 ~case ~max_nodes:48 in
    let g = Scenario.graph sc in
    let tb = Testbed.of_graph ~seed:sc.Scenario.seed g in
    if Runner.coverage (Testbed.nd tb) then incr covered
  done;
  Alcotest.(check bool) "some scenarios have landmark coverage" true (!covered > 0)

let test_summary_deterministic () =
  let run () = Harness.run_cases ~run_seed:9 ~cases:5 ~max_nodes:40 () in
  Alcotest.(check string) "same seed, same JSON summary"
    (Harness.to_json (run ()))
    (Harness.to_json (run ()))

let suite =
  [
    Alcotest.test_case "bounded run passes" `Slow test_bounded_run_passes;
    Alcotest.test_case "broken router caught and shrunk" `Quick test_broken_router_caught;
    prop_scenario_string_roundtrip;
    Alcotest.test_case "coverage exercised" `Quick test_coverage_exercised;
    Alcotest.test_case "summary deterministic" `Quick test_summary_deterministic;
  ]
