module Graph = Disco_graph.Graph
module Rng = Disco_util.Rng
module Core = Disco_core
module Header = Disco_core.Header

let build seed =
  let g = Helpers.random_weighted_graph seed in
  (g, Core.Disco.build ~rng:(Rng.create seed) g)

let test_components_sum () =
  let _, d = build 3 in
  let c =
    Header.first_packet d ~heuristic:Core.Shortcut.No_path_knowledge ~name_bytes:20
      ~src:0 ~dst:7
  in
  Alcotest.(check int) "total = parts"
    (c.Header.name_bytes + c.Header.label_bytes + c.Header.id_list_bytes)
    c.Header.total;
  Alcotest.(check int) "name bytes" 20 c.Header.name_bytes

let test_no_ids_without_path_knowledge () =
  let _, d = build 5 in
  List.iter
    (fun h ->
      let c = Header.first_packet d ~heuristic:h ~name_bytes:20 ~src:1 ~dst:9 in
      Alcotest.(check int) (Core.Shortcut.name h ^ " carries no id list") 0
        c.Header.id_list_bytes)
    [ Core.Shortcut.No_shortcut; Core.Shortcut.To_destination;
      Core.Shortcut.No_path_knowledge ]

let test_path_knowledge_pays_for_ids () =
  let g, d = build 7 in
  let n = Graph.n g in
  let some_positive = ref false in
  for s = 0 to min 10 (n - 1) do
    for t = 0 to min 10 (n - 1) do
      if s <> t then begin
        let c =
          Header.first_packet d ~heuristic:Core.Shortcut.Path_knowledge ~name_bytes:20
            ~src:s ~dst:t
        in
        let route = Core.Disco.route_first ~heuristic:Core.Shortcut.Path_knowledge d ~src:s ~dst:t in
        let bits = Disco_util.Bits.width_for n in
        Alcotest.(check int) "id list sized to route"
          ((List.length route * bits + 7) / 8)
          c.Header.id_list_bytes;
        if c.Header.id_list_bytes > 0 then some_positive := true
      end
    done
  done;
  Alcotest.(check bool) "ids actually cost bytes" true !some_positive

let test_later_packet_no_ids () =
  let _, d = build 9 in
  let c = Header.later_packet d ~name_bytes:16 ~src:0 ~dst:5 in
  Alcotest.(check int) "no ids" 0 c.Header.id_list_bytes;
  Alcotest.(check int) "ipv6-sized name" 16 c.Header.name_bytes

let test_label_bytes_match_route () =
  (* The label encoding in the header equals Address-style packing of the
     actual route. *)
  let g, d = build 11 in
  let route = Core.Disco.route_later d ~src:2 ~dst:8 in
  let addr = Core.Address.make g ~route in
  let c = Header.later_packet d ~name_bytes:20 ~src:2 ~dst:8 in
  Alcotest.(check int) "label bytes" (Core.Address.route_byte_size addr) c.Header.label_bytes

let suite =
  [
    Alcotest.test_case "components sum" `Quick test_components_sum;
    Alcotest.test_case "no ids without path knowledge" `Quick test_no_ids_without_path_knowledge;
    Alcotest.test_case "path knowledge pays for ids" `Quick test_path_knowledge_pays_for_ids;
    Alcotest.test_case "later packet no ids" `Quick test_later_packet_no_ids;
    Alcotest.test_case "label bytes match route" `Quick test_label_bytes_match_route;
  ]
