(* fig10 and the fate-sharing experiment: load tails and failure blast
   radius. *)

module Gen = Disco_graph.Gen
module Rng = Disco_util.Rng
module Core = Disco_core

(* fig10: congestion tail on the AS-level topology. *)
let fig10 (cfg : Engine.config) =
  let { Engine.seed; scale; _ } = cfg in
  let n = Scale.big_n scale in
  Report.section
    (Printf.sprintf "fig10: congestion on AS-level topology; n=%d" n);
  let tb = Testbed.make ~seed Gen.As_level ~n in
  let c = Metrics.congestion ~tel:cfg.Engine.tel tb in
  Report.summary_line ~label:"disco" c.Metrics.c_disco;
  Report.summary_line ~label:"s4" c.Metrics.c_s4;
  Report.summary_line ~label:"pathvector" c.Metrics.c_pathvector;
  let tail label samples =
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    let m = Array.length sorted in
    let pick q = sorted.(min (m - 1) (int_of_float (q *. float_of_int m))) in
    Report.kv
      (label ^ " p99.9/p99.95/max")
      (Printf.sprintf "%.0f / %.0f / %.0f" (pick 0.999) (pick 0.9995)
         sorted.(m - 1))
  in
  tail "disco" c.Metrics.c_disco;
  tail "s4" c.Metrics.c_s4;
  tail "pathvector" c.Metrics.c_pathvector

(* fate: §2's fate-sharing argument, measured. "these solutions lack fate
   sharing: a failure far from the source-destination path can disrupt
   communication." Kill one uniform-random remote node and see whose
   first packet dies: resolution-based lookup (S4) drags packets through
   a hash-selected landmark anywhere in the network; Disco's lookup stays
   inside the source's vicinity.

   This is a (src, dst, dead-node) triple sample, not a sampled-pairs
   sweep, so it keeps its own loop rather than going through Engine. *)
let fate (cfg : Engine.config) =
  let { Engine.seed; scale; _ } = cfg in
  let n = match scale with Scale.Small -> 1024 | Scale.Paper -> 4096 in
  Report.section
    (Printf.sprintf
       "fate: flows disrupted by one random remote node failure; geometric n=%d" n);
  let tb = Testbed.make ~seed Gen.Geometric ~n in
  let rng = Testbed.rng tb ~purpose:31 in
  let graph = tb.Testbed.graph in
  let ws = Disco_graph.Dijkstra.make_workspace graph in
  let tel = cfg.Engine.tel in
  (* The disrupted flows are walked first packets, not oracle routes: a
     node is "on the flow" iff the data plane actually carries the packet
     through it. *)
  let sc = Walk.scratch graph in
  let first packed =
    let module R = (val packed : Protocol.ROUTER) in
    let walker = Walk.compile (module R) (R.build tb) ~graph in
    fun ~src ~dst ->
      Walk.run walker sc ~tel Walk.First ~src ~dst;
      Walk.path sc
  in
  let disco_first = first (Routers.find_exn "disco") in
  let s4_first = first (Routers.find_exn "s4") in
  let trials = 1500 in
  let disrupted_disco = ref 0
  and disrupted_s4 = ref 0
  and disrupted_sp = ref 0
  and on_path = ref 0
  and total = ref 0 in
  for _ = 1 to trials do
    let s = Rng.int rng n and t = Rng.int rng n and dead = Rng.int rng n in
    if s <> t && dead <> s && dead <> t then begin
      incr total;
      let sp = Disco_graph.Dijkstra.sssp ~ws graph s in
      let shortest =
        Disco_graph.Dijkstra.path_of_parents
          ~parent:(fun u -> sp.Disco_graph.Dijkstra.parent.(u))
          ~src:s ~dst:t
      in
      let uses path = List.mem dead path in
      if uses shortest then begin
        (* The failure sits on the direct path: everyone suffers; exclude
           it from the "remote failure" statistic. *)
        incr on_path
      end
      else begin
        if uses (disco_first ~src:s ~dst:t) then incr disrupted_disco;
        if uses (s4_first ~src:s ~dst:t) then incr disrupted_s4;
        if uses shortest then incr disrupted_sp
      end
    end
  done;
  let remote = !total - !on_path in
  let pct x = 100.0 *. float_of_int x /. float_of_int (max 1 remote) in
  Report.kv "trials (remote failures only)" (string_of_int remote);
  Report.kv "disco first packet disrupted" (Printf.sprintf "%.2f%%" (pct !disrupted_disco));
  Report.kv "s4 first packet disrupted (resolution detour)"
    (Printf.sprintf "%.2f%%" (pct !disrupted_s4));
  Report.kv "shortest path disrupted" "0.00% (by construction)"
