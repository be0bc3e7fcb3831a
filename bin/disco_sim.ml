(* disco-sim: command-line playground for the Disco protocols.

     disco-sim gen --kind geometric -n 1024 -o topo.graph
     disco-sim route --kind gnm -n 512 --src 3 --dst 77
     disco-sim route --input topo.graph --src 0 --dst 9 --protocol s4
     disco-sim state --kind as-level -n 2048
     disco-sim estimate --kind gnm -n 1024
     disco-sim trace --kind geometric -n 512 --src 3 --dst 99 --scheme vrr
     disco-sim dot --kind gnm -n 64 --src 0 --dst 9 -o route.dot
     disco-sim figure --id fig3 --scale small
*)

open Cmdliner
module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Stats = Disco_util.Stats
module Core = Disco_core

let kind_of_string s =
  match Gen.kind_of_string s with
  | Some k -> Ok k
  | None -> Error (Printf.sprintf "unknown topology kind %S" s)

let load_graph ~input ~kind ~n ~seed =
  match input with
  | Some path -> Ok (Disco_graph.Graph_io.of_file path)
  | None -> (
      match kind_of_string kind with
      | Ok k -> Ok (Gen.by_kind ~rng:(Rng.create seed) k ~n)
      | Error e -> Error e)

(* Common flags *)
let kind_arg =
  Arg.(value & opt string "gnm"
       & info [ "kind"; "k" ] ~docv:"KIND"
           ~doc:"Topology: gnm, geometric, as-level, router-level.")

let n_arg =
  Arg.(value & opt int 512 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")

let seed_arg = Disco_experiments.Cli.seed_term

let input_arg =
  Arg.(value & opt (some string) None
       & info [ "input"; "i" ] ~docv:"FILE" ~doc:"Edge-list file instead of a generator.")

(* gen: write a topology to a file. *)
let gen_cmd =
  let run kind n seed output =
    match kind_of_string kind with
    | Error e -> `Error (false, e)
    | Ok k ->
        let g = Gen.by_kind ~rng:(Rng.create seed) k ~n in
        (match output with
        | Some path ->
            Disco_graph.Graph_io.to_file path g;
            Printf.printf "wrote %d nodes / %d edges to %s\n" (Graph.n g) (Graph.m g) path
        | None -> Disco_graph.Graph_io.to_channel stdout g);
        `Ok ()
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a topology as an edge list")
    Term.(ret (const run $ kind_arg $ n_arg $ seed_arg $ output))

let scheme_arg = Disco_experiments.Cli.scheme_term ~default:"disco" ()

(* route: walk one pair through any registered scheme's data plane. *)
let route_cmd =
  let run kind n seed input src dst protocol =
    match load_graph ~input ~kind ~n ~seed with
    | Error e -> `Error (false, e)
    | Ok g ->
        let nn = Graph.n g in
        if src < 0 || src >= nn || dst < 0 || dst >= nn then
          `Error (false, "src/dst out of range")
        else begin
          let packed = Disco_experiments.Routers.find_exn protocol in
          let module R = (val packed : Disco_experiments.Protocol.ROUTER) in
          let tb = Disco_experiments.Testbed.of_graph ~seed g in
          let router = R.build tb in
          let tel = Disco_util.Telemetry.create () in
          let shortest = Dijkstra.distance g src dst in
          let report name = function
            | Some path ->
                Printf.printf "%-18s %2d hops  stretch %.3f  %s\n" name
                  (List.length path - 1)
                  (if shortest > 0.0 then Dijkstra.path_length g path /. shortest
                   else 1.0)
                  (String.concat "-" (List.map string_of_int path))
            | None -> Printf.printf "%-18s routing failed\n" name
          in
          let module Walk = Disco_experiments.Walk in
          let walker = Walk.compile (module R) router ~graph:g in
          let sc = Walk.scratch g in
          report (R.name ^ "-first") (Walk.route walker sc ~tel Walk.First ~src ~dst);
          report (R.name ^ "-later") (Walk.route walker sc ~tel Walk.Later ~src ~dst);
          Printf.printf "%-18s %.3f\n" "shortest" shortest;
          Printf.printf "%-18s %d entries\n" "state@src"
            (R.state_entries router src);
          `Ok ()
        end
  in
  let src = Arg.(value & opt int 0 & info [ "src" ] ~docv:"NODE" ~doc:"Source node.") in
  let dst = Arg.(value & opt int 1 & info [ "dst" ] ~docv:"NODE" ~doc:"Destination node.") in
  Cmd.v (Cmd.info "route" ~doc:"Route one source-destination pair")
    Term.(ret (const run $ kind_arg $ n_arg $ seed_arg $ input_arg $ src $ dst $ scheme_arg))

(* state: per-protocol state summary. *)
let state_cmd =
  let run kind n seed with_vrr =
    match kind_of_string kind with
    | Error e -> `Error (false, e)
    | Ok k ->
        let tb = Disco_experiments.Testbed.make ~seed k ~n in
        let st = Disco_experiments.Metrics.state ~with_vrr tb in
        let row name samples =
          let s = Stats.summarize samples in
          Printf.printf "%-12s mean %10.1f  p95 %10.1f  max %10.1f\n" name s.Stats.mean
            s.Stats.p95 s.Stats.max
        in
        row "disco" st.Disco_experiments.Metrics.disco;
        row "nddisco" st.Disco_experiments.Metrics.nddisco;
        row "s4" st.Disco_experiments.Metrics.s4;
        row "path-vector" st.Disco_experiments.Metrics.pathvector;
        (match st.Disco_experiments.Metrics.vrr with
        | Some v -> row "vrr" v
        | None -> ());
        `Ok ()
  in
  let with_vrr =
    Arg.(value & flag & info [ "vrr" ] ~doc:"Also build VRR (slower).")
  in
  Cmd.v (Cmd.info "state" ~doc:"Per-node routing state summary")
    Term.(ret (const run $ kind_arg $ n_arg $ seed_arg $ with_vrr))

(* estimate: synopsis diffusion demo. *)
let estimate_cmd =
  let run kind n seed buckets =
    match kind_of_string kind with
    | Error e -> `Error (false, e)
    | Ok k ->
        let g = Gen.by_kind ~rng:(Rng.create seed) k ~n in
        let o =
          Disco_synopsis.Diffusion.estimate_n ~graph:g ~node_name:Core.Name.default
            ~buckets ()
        in
        let s = Stats.summarize o.Disco_synopsis.Diffusion.estimates in
        Printf.printf
          "true n=%d; estimates mean=%.0f min=%.0f max=%.0f (%dB synopses, %d rounds, %d msgs)\n"
          n s.Stats.mean s.Stats.min s.Stats.max o.Disco_synopsis.Diffusion.sketch_bytes
          o.Disco_synopsis.Diffusion.rounds_run o.Disco_synopsis.Diffusion.messages;
        `Ok ()
  in
  let buckets =
    Arg.(value & opt int 32 & info [ "buckets" ] ~docv:"B" ~doc:"FM bitmaps (power of 2).")
  in
  Cmd.v (Cmd.info "estimate" ~doc:"Estimate n by synopsis diffusion")
    Term.(ret (const run $ kind_arg $ n_arg $ seed_arg $ buckets))

(* trace: packet-level walk with per-hop decisions and the header each
   node puts on the link, for any registered scheme — the same compiled
   walker the figures measure with. *)
let trace_cmd =
  let run kind n seed input src dst protocol =
    match load_graph ~input ~kind ~n ~seed with
    | Error e -> `Error (false, e)
    | Ok g ->
        let nn = Graph.n g in
        if src < 0 || src >= nn || dst < 0 || dst >= nn then
          `Error (false, "src/dst out of range")
        else begin
          let packed = Disco_experiments.Routers.find_exn protocol in
          let module R = (val packed : Disco_experiments.Protocol.ROUTER) in
          let module Walk = Disco_experiments.Walk in
          let tb = Disco_experiments.Testbed.of_graph ~seed g in
          let walker = Walk.compile (module R) (R.build tb) ~graph:g in
          let sc = Walk.scratch g in
          let tel = Disco_util.Telemetry.create () in
          let show label kind =
            Printf.printf "%s (%s):\n%s\n" label R.name
              (Format.asprintf "%a" Walk.pp_trace
                 (Walk.trace walker sc ~tel kind ~src ~dst))
          in
          show "first packet" Walk.First;
          show "later packets" Walk.Later;
          `Ok ()
        end
  in
  let src = Arg.(value & opt int 0 & info [ "src" ] ~docv:"NODE" ~doc:"Source node.") in
  let dst = Arg.(value & opt int 1 & info [ "dst" ] ~docv:"NODE" ~doc:"Destination node.") in
  Cmd.v (Cmd.info "trace" ~doc:"Trace a packet hop by hop with per-node decisions")
    Term.(ret (const run $ kind_arg $ n_arg $ seed_arg $ input_arg $ src $ dst $ scheme_arg))

(* dot: Graphviz export, optionally highlighting a Disco route. *)
let dot_cmd =
  let run kind n seed input src dst output =
    match load_graph ~input ~kind ~n ~seed with
    | Error e -> `Error (false, e)
    | Ok g ->
        let highlight =
          match (src, dst) with
          | Some s, Some d when s <> d ->
              let disco = Core.Disco.build ~rng:(Rng.create seed) g in
              Core.Disco.route_first disco ~src:s ~dst:d
          | _ -> []
        in
        let dot = Disco_graph.Graph_io.to_dot ~highlight g in
        (match output with
        | Some path ->
            let oc = open_out path in
            Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
                output_string oc dot);
            Printf.printf "wrote %s\n" path
        | None -> print_string dot);
        `Ok ()
  in
  let src = Arg.(value & opt (some int) None & info [ "src" ] ~docv:"NODE" ~doc:"Route source.") in
  let dst = Arg.(value & opt (some int) None & info [ "dst" ] ~docv:"NODE" ~doc:"Route destination.") in
  let output =
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v (Cmd.info "dot" ~doc:"Export the topology as Graphviz, optionally with a route highlighted")
    Term.(ret (const run $ kind_arg $ n_arg $ seed_arg $ input_arg $ src $ dst $ output))

(* figure: delegate to the experiment harness; parsing shared with
   bench/main.exe via Disco_experiments.Cli. *)
let figure_cmd =
  let run id scale seed jobs = Disco_experiments.Figures.run ~seed ~jobs scale id in
  Cmd.v (Cmd.info "figure" ~doc:"Regenerate one evaluation figure")
    Term.(
      const run
      $ Disco_experiments.Cli.figure_term ~default:"fig3" ()
      $ Disco_experiments.Cli.scale_term $ seed_arg
      $ Disco_experiments.Cli.jobs_term)

let () =
  let info =
    Cmd.info "disco-sim" ~doc:"Scalable routing on flat names (Disco) simulator"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ gen_cmd; route_cmd; trace_cmd; state_cmd; estimate_cmd; dot_cmd; figure_cmd ]))
