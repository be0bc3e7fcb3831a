(* Every metric the benchmark prints, with its unit.  BENCHMARK.json at
   the repository root lists the same names and units; the smoke test
   holds the two to each other. *)

let schemes = [ "disco"; "nddisco"; "s4"; "vrr"; "bvr"; "seattle"; "tz"; "pathvector" ]
let per_scheme f = List.concat_map f schemes

let end_to_end =
  [ ("setup_s", "s"); ("peak_rss_mb", "MB") ]
  @ per_scheme (fun s -> [ ("pps." ^ s, "1/s") ])
  @ [
      ("figure_s", "s");
      ("delivered_frac", "frac");
      ("stretch.disco.first", "ratio");
      ("stretch.disco.later", "ratio");
      ("state_bytes.disco", "B");
    ]

let first_cases =
  [ "trivial"; "direct_landmark"; "direct_vicinity"; "known_address";
    "via_group_member"; "resolution_fallback" ]

let per_layer =
  [
    ("gen.s", "s");
    ("vicinity.s", "s");
    ("vicinity.words", "words");
    ("vicinity.bytes", "B");
    ("landmark_trees.s", "s");
    ("landmark_trees.words", "words");
    ("landmark_trees.bytes", "B");
    ("groups.build.s", "s");
    ("overlay.build.s", "s");
    ("resolution.s", "s");
    ("resolution.bytes", "B");
    ("s4.balls.s", "s");
  ]
  @ per_scheme (fun s ->
        [
          (s ^ ".build.s", "s");
          (s ^ ".bytes", "B");
          ("compile." ^ s ^ ".s", "s");
          ("prime." ^ s ^ ".s", "s");
          ("encode." ^ s ^ ".s", "s");
          ("hop." ^ s ^ ".first.ns", "ns");
          ("hop." ^ s ^ ".later.ns", "ns");
          ("hops_per_pkt." ^ s, "hops");
          ("engine." ^ s ^ ".s", "s");
          ("drop." ^ s ^ ".ttl", "frac");
          ("drop." ^ s ^ ".no_route", "frac");
        ])
  @ [ ("decode.ns_per_pkt", "ns") ]
  @ List.map (fun c -> ("disco.first_case." ^ c, "frac")) first_cases
  @ [
      ("walk.words_per_hop", "words");
      ("trace.overhead_s", "s");
      ("setup.unattributed_s", "s");
    ]
