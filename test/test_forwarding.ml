module Graph = Disco_graph.Graph
module Rng = Disco_util.Rng
module Core = Disco_core
module Disco = Disco_core.Disco
module Forwarding = Disco_core.Forwarding
module D = Disco_core.Dataplane

let build seed =
  let g = Helpers.random_weighted_graph seed in
  (g, Disco.build ~rng:(Rng.create seed) g)

(* A walker over Disco's compiled data plane: prime, load the source's
   header, walk.  [~step] wraps the compiled step (decision recording). *)
type walked = { delivered : bool; path : int list; fallback : bool }

let walker g d =
  let f = Forwarding.compile d in
  let ttl = Forwarding.ttl_factor * Graph.n g in
  let pkt = D.packet_create g in
  let trail = Array.make (ttl + 1) (-1) in
  fun ?(wrap = Fun.id) ~first ~src ~dst () ->
    Forwarding.fast_prime f ~src ~dst;
    D.load_packet pkt
      (if first then Forwarding.first_header d ~src ~dst
       else Forwarding.later_header d ~src ~dst);
    D.fast_walk g ~step:(wrap (Forwarding.fast_step f)) pkt ~src ~ttl ~trail;
    {
      delivered = pkt.D.pdelivered;
      path = Array.to_list (Array.sub trail 0 (pkt.D.phops + 1));
      fallback = pkt.D.pfallback;
    }

let test_delivery_all_pairs () =
  let g, d = build 3 in
  let walk = walker g d in
  let n = Graph.n g in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t then begin
        let tr = walk ~first:true ~src:s ~dst:t () in
        Alcotest.(check bool) (Printf.sprintf "%d->%d delivered" s t) true tr.delivered;
        Helpers.check_path g ~src:s ~dst:t tr.path;
        let tr' = walk ~first:false ~src:s ~dst:t () in
        Alcotest.(check bool) "later delivered" true tr'.delivered;
        Helpers.check_path g ~src:s ~dst:t tr'.path
      end
    done
  done

let test_matches_control_plane () =
  (* The data-plane walk and the static route computation must produce
     routes of identical length under the same (to-destination)
     heuristic — tie-breaking may pick different equal-length paths. *)
  let g, d = build 5 in
  let walk = walker g d in
  let n = Graph.n g in
  for s = 0 to min 20 (n - 1) do
    for t = 0 to min 20 (n - 1) do
      if s <> t then begin
        let tr = walk ~first:true ~src:s ~dst:t () in
        let route =
          Disco.route_first ~heuristic:Core.Shortcut.To_destination d ~src:s ~dst:t
        in
        let lf = Helpers.path_len g tr.path in
        let lc = Helpers.path_len g route in
        if Float.abs (lf -. lc) > 1e-9 then
          Alcotest.failf "%d->%d: forwarded %.6f vs computed %.6f" s t lf lc
      end
    done
  done

let test_later_matches_control_plane () =
  let g, d = build 7 in
  let walk = walker g d in
  let n = Graph.n g in
  for s = 0 to min 20 (n - 1) do
    for t = 0 to min 20 (n - 1) do
      if s <> t then begin
        let tr = walk ~first:false ~src:s ~dst:t () in
        let route =
          Disco.route_later ~heuristic:Core.Shortcut.To_destination d ~src:s ~dst:t
        in
        let lf = Helpers.path_len g tr.path in
        let lc = Helpers.path_len g route in
        if lf > lc +. 1e-9 then
          Alcotest.failf "%d->%d: forwarded %.6f worse than computed %.6f" s t lf lc
      end
    done
  done

(* The destination answers a delivered first packet with the exact path
   iff the source is in its vicinity; the source's later header then rides
   that path. *)
let test_handshake_iff_in_vicinity () =
  let g, d = build 9 in
  let walk = walker g d in
  let nd = d.Disco.nd in
  let n = Graph.n g in
  for s = 0 to min 15 (n - 1) do
    for t = 0 to min 15 (n - 1) do
      if s <> t then begin
        let tr = walk ~first:true ~src:s ~dst:t () in
        Alcotest.(check bool) "first packet delivered" true tr.delivered;
        let handshake = Forwarding.deliver_check d ~src:s ~dst:t in
        let expect = Core.Vicinity.mem nd.Core.Nddisco.vicinity t s in
        Alcotest.(check bool)
          (Printf.sprintf "handshake %d->%d" s t)
          expect (handshake <> None);
        match handshake with
        | Some p ->
            Helpers.check_path g ~src:s ~dst:t p;
            (* The revealed path is exact, and later packets ride it. *)
            let sp = Disco_graph.Dijkstra.distance g s t in
            Alcotest.(check bool) "handshake path is shortest" true
              (Float.abs (Helpers.path_len g p -. sp) < 1e-9);
            let later = walk ~first:false ~src:s ~dst:t () in
            Alcotest.(check bool) "later packet rides a shortest path" true
              (Float.abs (Helpers.path_len g later.path -. sp) < 1e-9)
        | None -> ()
      end
    done
  done

let test_steps_recorded () =
  let g, d = build 11 in
  let decisions = ref [] in
  let wrap step pkt u =
    let r = step pkt u in
    decisions := (u, r) :: !decisions;
    r
  in
  let tr = walker g d ~wrap ~first:true ~src:0 ~dst:7 () in
  let steps = List.rev !decisions in
  Alcotest.(check bool) "delivered" true tr.delivered;
  Alcotest.(check int) "one decision per hop, plus the delivery"
    (List.length tr.path) (List.length steps);
  let at, verdict = List.nth steps (List.length steps - 1) in
  Alcotest.(check int) "last is deliver" D.fast_deliver verdict;
  Alcotest.(check int) "deliver at destination" 7 at;
  (* Every other decision names the next node on the path. *)
  List.iteri
    (fun i (u, v) ->
      if i < List.length steps - 1 then begin
        Alcotest.(check int) "decided where the packet was" (List.nth tr.path i) u;
        Alcotest.(check int) "hop is the decision" (List.nth tr.path (i + 1)) v
      end)
    steps

let test_trivial () =
  let g, d = build 13 in
  let tr = walker g d ~first:true ~src:4 ~dst:4 () in
  Alcotest.(check bool) "delivered" true tr.delivered;
  Alcotest.(check (list int)) "stays put" [ 4 ] tr.path

(* The registry walker's trace: every decision with the header view it
   put on the link, rendered. *)
let test_pp_trace () =
  let module Walk = Disco_experiments.Walk in
  let g = Helpers.random_weighted_graph 15 in
  let tb = Disco_experiments.Testbed.of_graph ~seed:15 g in
  let (module R) = Disco_experiments.Routers.find_exn "disco" in
  let walker = Walk.compile (module R) (R.build tb) ~graph:g in
  let tel = Disco_util.Telemetry.create () in
  let tr = Walk.trace walker (Walk.scratch g) ~tel Walk.First ~src:0 ~dst:9 in
  Alcotest.(check bool) "delivered" true tr.Walk.delivered;
  Alcotest.(check int) "one decision per hop, plus the delivery"
    (tr.Walk.hops + 1) (List.length tr.Walk.decisions);
  Alcotest.(check bool) "every hop carries at least the name" true
    (tr.Walk.header_bytes_total >= 20 * tr.Walk.hops
    && tr.Walk.header_bytes_total <= tr.Walk.hops * tr.Walk.header_bytes_max);
  let s = Format.asprintf "%a" Walk.pp_trace tr in
  Alcotest.(check bool) "renders the delivery" true
    (let rec has i =
       i + 7 <= String.length s && (String.sub s i 7 = "deliver" || has (i + 1))
     in
     has 0)

let prop_first_packet_stretch_bound =
  Helpers.qtest "forwarded first packets respect stretch 7 w.h.p." ~count:10
    Helpers.seed_arb (fun seed ->
      let g, d = build seed in
      let nd = d.Disco.nd in
      (* Theorem precondition, as in test_disco_core. *)
      let precondition =
        let ok = ref true in
        for v = 0 to Graph.n g - 1 do
          if not nd.Core.Nddisco.landmarks.Core.Landmarks.is_landmark.(v) then begin
            let vw = Core.Vicinity.view nd.Core.Nddisco.vicinity v in
            if
              not
                (Array.exists
                   (fun w -> nd.Core.Nddisco.landmarks.Core.Landmarks.is_landmark.(w))
                   vw.Core.Vicinity.members)
            then ok := false
          end
        done;
        !ok
      in
      QCheck.assume precondition;
      let walk = walker g d in
      let ws = Disco_graph.Dijkstra.make_workspace g in
      let ok = ref true in
      for s = 0 to min 10 (Graph.n g - 1) do
        let sp = Disco_graph.Dijkstra.sssp ~ws g s in
        for t = 0 to Graph.n g - 1 do
          if
            s <> t
            && sp.Disco_graph.Dijkstra.dist.(t) > 0.0
            && sp.Disco_graph.Dijkstra.dist.(t) < infinity
          then begin
            let tr = walk ~first:true ~src:s ~dst:t () in
            (match Disco.classify_first d ~src:s ~dst:t with
            | Disco.Resolution_fallback -> () (* no bound in the fallback *)
            | _ ->
                if
                  Helpers.path_len g tr.path /. sp.Disco_graph.Dijkstra.dist.(t)
                  > 7.0 +. 1e-9
                then ok := false);
            if not tr.delivered then ok := false
          end
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "delivery between all pairs" `Quick test_delivery_all_pairs;
    Alcotest.test_case "first packet matches control plane" `Quick test_matches_control_plane;
    Alcotest.test_case "later packet matches control plane" `Quick test_later_matches_control_plane;
    Alcotest.test_case "handshake iff in vicinity" `Quick test_handshake_iff_in_vicinity;
    Alcotest.test_case "steps recorded" `Quick test_steps_recorded;
    Alcotest.test_case "trivial" `Quick test_trivial;
    Alcotest.test_case "pp_trace" `Quick test_pp_trace;
    prop_first_packet_stretch_bound;
  ]
