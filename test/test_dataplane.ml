(* The scheme-agnostic walker itself, driven by synthetic compiled steps:
   TTL exhaustion, a rewrite at a proxy, the data-plane contract (neighbor
   hops only, deliver only at the destination, one decision at src = dst),
   and header byte accounting over the packet's typed view. *)

module Graph = Disco_graph.Graph
module D = Disco_core.Dataplane

(* A weighted line 0 - 1 - ... - (n-1). *)
let line n =
  let b = Graph.Builder.create n in
  for v = 0 to n - 2 do
    Graph.Builder.add_edge b v (v + 1) 1.0
  done;
  Graph.Builder.build b

(* Load [h] and walk it from [src]; returns the packet and the hop
   sequence. *)
let walk ?(ttl = 32) g ~step ~src h =
  let pkt = D.packet_create g in
  let trail = Array.make (ttl + 1) (-1) in
  D.load_packet pkt h;
  D.fast_walk g ~step pkt ~src ~ttl ~trail;
  (pkt, Array.to_list (Array.sub trail 0 (pkt.D.phops + 1)))

let test_ttl_exhaustion () =
  let g = line 3 in
  (* Ping-pong 0 <-> 1 forever: only the TTL stops the walk. *)
  let step (_ : D.packet) u = if u = 0 then 1 else 0 in
  let pkt, path = walk ~ttl:7 g ~step ~src:0 (D.plain ~dst:2 D.Carry) in
  Alcotest.(check bool) "not delivered" false pkt.D.pdelivered;
  Alcotest.(check int) "ttl expired" D.drop_ttl pkt.D.pdrop;
  Alcotest.(check int) "stopped at the ttl" 7 pkt.D.phops;
  Alcotest.(check (list int)) "trail records every hop" [ 0; 1; 0; 1; 0; 1; 0; 1 ] path

let test_rewrite_at_proxy () =
  let g = line 4 in
  (* Steer to waypoint 2 on explicit labels; the waypoint rewrites the
     packet with the onward route — the shape of every lookup detour. *)
  let step (pkt : D.packet) u =
    if pkt.D.pmode = D.mode_carry then
      if u = pkt.D.pdst then D.fast_deliver
      else if D.route_len pkt > 0 then D.route_next pkt
      else D.fast_no_route
    else if D.route_len pkt > 0 then D.route_next pkt
    else begin
      pkt.D.pmode <- D.mode_carry;
      pkt.D.pway <- -1;
      3
    end
  in
  let header =
    { (D.plain ~dst:3 (D.Steer { tried_proxy = false })) with
      D.labels = [ 1; 2 ];
      waypoint = 2;
    }
  in
  let pkt, path = walk g ~step ~src:0 header in
  Alcotest.(check bool) "delivered" true pkt.D.pdelivered;
  Alcotest.(check (list int)) "path rides through the proxy" [ 0; 1; 2; 3 ] path;
  Alcotest.(check int) "proxy rewrote the mode" D.mode_carry pkt.D.pmode;
  Alcotest.(check int) "waypoint cleared" (-1) pkt.D.pway

let test_non_neighbor_is_protocol_error () =
  let g = line 4 in
  let step (_ : D.packet) _ = 3 (* 3 is not adjacent to 0 *) in
  let pkt, _ = walk g ~step ~src:0 (D.plain ~dst:3 D.Carry) in
  Alcotest.(check int) "dropped as protocol error" D.drop_protocol pkt.D.pdrop;
  Alcotest.(check int) "no hop taken" 0 pkt.D.phops

let test_deliver_away_from_dst_is_protocol_error () =
  let g = line 4 in
  let step (_ : D.packet) _ = D.fast_deliver in
  let pkt, _ = walk g ~step ~src:0 (D.plain ~dst:3 D.Carry) in
  Alcotest.(check bool) "not delivered" false pkt.D.pdelivered;
  Alcotest.(check int) "dropped as protocol error" D.drop_protocol pkt.D.pdrop

let test_src_equals_dst () =
  let g = line 4 in
  let calls = ref 0 in
  let step (pkt : D.packet) u =
    incr calls;
    if u = pkt.D.pdst then D.fast_deliver else D.fast_no_route
  in
  let pkt, path = walk g ~step ~src:2 (D.plain ~dst:2 D.Carry) in
  Alcotest.(check bool) "delivered" true pkt.D.pdelivered;
  Alcotest.(check (list int)) "stays put" [ 2 ] path;
  Alcotest.(check int) "no hops" 0 pkt.D.phops;
  Alcotest.(check int) "the scheme decides exactly once" 1 !calls;
  (* Moving away from the destination at the source is a contract break. *)
  let step (_ : D.packet) _ = 1 in
  let pkt, _ = walk g ~step ~src:2 (D.plain ~dst:2 D.Carry) in
  Alcotest.(check int) "forwarding away from dst is a protocol error"
    D.drop_protocol pkt.D.pdrop

let test_byte_accounting () =
  let g = line 4 in
  (* A plain header is just the self-certifying name. *)
  let plain = D.plain ~dst:3 D.Carry in
  Alcotest.(check int) "plain = name bytes" 20 (D.byte_size g ~at:0 plain);
  Alcotest.(check int) "name_bytes overridable" 8
    (D.byte_size ~name_bytes:8 g ~at:0 plain);
  (* Every optional field strictly grows the header. *)
  let grows label h =
    if D.byte_size g ~at:0 h <= D.byte_size g ~at:0 plain then
      Alcotest.failf "%s did not grow the header" label
  in
  grows "labels" { plain with D.labels = [ 1; 2; 3 ] };
  grows "waypoint" { plain with D.waypoint = 2 };
  grows "anchor" { plain with D.anchor = 2 };
  grows "fbound" { plain with D.fbound = 1.5 };
  grows "vbound" { plain with D.vbound = 7L };
  grows "extra bytes" { plain with D.extra_bytes = 4 };
  (* The packet's typed view is the header it was loaded from, and
     consuming a label shrinks the header carried on the next link. *)
  let h =
    { (D.plain ~dst:3 (D.Steer { tried_proxy = true })) with
      D.labels = [ 1; 2; 3 ];
      waypoint = 2;
      anchor = 1;
      fbound = 2.5;
      vbound = 0x1234_5678_9abcL;
      extra_bytes = 4;
    }
  in
  let pkt = D.packet_create g in
  D.load_packet pkt h;
  Alcotest.(check bool) "view inverts load_packet" true (D.view pkt = h);
  Alcotest.(check int) "consumed one label" 1 (D.route_next pkt);
  let after = D.view pkt in
  Alcotest.(check (list int)) "view tracks the route window" [ 2; 3 ] after.D.labels;
  Alcotest.(check bool) "fewer labels, no more bytes" true
    (D.byte_size g ~at:1 after <= D.byte_size g ~at:0 h)

let suite =
  [
    Alcotest.test_case "ttl exhaustion" `Quick test_ttl_exhaustion;
    Alcotest.test_case "rewrite at proxy" `Quick test_rewrite_at_proxy;
    Alcotest.test_case "non-neighbor hop rejected" `Quick
      test_non_neighbor_is_protocol_error;
    Alcotest.test_case "deliver away from dst rejected" `Quick
      test_deliver_away_from_dst_is_protocol_error;
    Alcotest.test_case "src = dst" `Quick test_src_equals_dst;
    Alcotest.test_case "byte accounting" `Quick test_byte_accounting;
  ]
