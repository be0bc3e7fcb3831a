(* The two workloads.  Each runs in its own process, builds its inputs
   from the seed alone, measures, checks the program's outputs, and fills
   either the end-to-end metrics (untraced run) or the per-layer ones
   (traced run). *)

module P = Pipeline
module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Dijkstra = Disco_graph.Dijkstra
module Core = Disco_core
module Ex = Disco_experiments

(* Problem sizes.  [full] is what the benchmark runs; [tiny] exercises
   every code path in a second for the smoke test. *)
type size = {
  glp_n : int;
  glp_flows : (string * int) list;  (* flows per scheme *)
  graphs : int;  (* graphs built and timed per build-glp run; setup_s is their median *)
  router_n : int;
  pairs : int;  (* Engine.sample_pairs pairs per figure *)
  check : int;  (* flows per scheme compared against the oracles *)
}

let flows_for ~default ~except =
  List.map
    (fun s -> (s, Option.value ~default (List.assoc_opt s except)))
    Catalog.schemes

let full =
  {
    glp_n = 5000;
    glp_flows = flows_for ~default:2048 ~except:[ ("seattle", 256); ("pathvector", 1024) ];
    graphs = 4;
    router_n = 4096;
    pairs = 1500;
    check = 32;
  }

let tiny =
  {
    glp_n = 300;
    glp_flows = flows_for ~default:32 ~except:[];
    graphs = 2;
    router_n = 200;
    pairs = 40;
    check = 8;
  }

let names = [ "build-glp"; "figure-router" ]
let figure_jobs = 2
let router_setups = 5
let figure_reps = 4

type out = {
  metrics : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable envelope : (string * string) list;  (* member name, JSON value *)
}

let set o k v = Hashtbl.replace o.metrics k v
let note o k json = o.envelope <- o.envelope @ [ (k, json) ]
let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let flows_json counts =
  "{"
  ^ String.concat ", " (List.map (fun (s, c) -> Printf.sprintf "%S: %d" s c) counts)
  ^ "}"

let mean_packed_bytes (tb : Ex.Testbed.t) =
  let n = Graph.n tb.Ex.Testbed.graph in
  let acc = ref 0.0 in
  for v = 0 to n - 1 do
    acc := !acc +. Core.Disco.packed_state_bytes tb.Ex.Testbed.disco v
  done;
  !acc /. float_of_int n

let peak_rss o = set o "peak_rss_mb" (float_of_int (Host.peak_rss_kb ()) /. 1024.0)

(* Per-layer metrics read off the recorder and the ledger.  Metric
   [<span>.s] is the summed self time of the spans named [<span>]. *)
let layer_metrics o sp ledger ~setup ~plain_setup =
  List.iter
    (fun (name, _) ->
      if String.ends_with ~suffix:".s" name then begin
        let span = String.sub name 0 (String.length name - 2) in
        let self, _ = Span.totals sp span in
        if self > 0.0 then set o name self
      end
      else if String.ends_with ~suffix:".bytes" name then
        set o name (P.Ledger.get ledger name))
    Catalog.per_layer;
  set o "vicinity.words" (snd (Span.totals sp "vicinity"));
  set o "landmark_trees.words" (snd (Span.totals sp "landmark_trees"));
  let attributed =
    List.fold_left (fun a (_, self) -> a +. self) 0.0 (Span.self_times sp)
  in
  set o "setup.unattributed_s" (setup -. attributed);
  set o "trace.overhead_s" (setup -. plain_setup)

(* Set up [times] times untraced (keeping the last state), or, traced,
   once without spans and once with them, so the difference is the
   tracing overhead.  Both traced-mode setups keep the memory ledger,
   whose collections change the heap's shape for what follows (their
   pauses are excluded from either time).  Untraced, setup [i] builds
   graph [i] and [after] measures it while it is the live state.  Returns
   the last state and the setup durations. *)
let setups ?(after = ignore) o sp ~times build =
  if Span.enabled sp then begin
    Gc.compact ();
    let _, plain = build ~index:0 (Span.create ~on:false) (P.Ledger.create ~on:true) in
    Gc.compact ();
    let ledger = P.Ledger.create ~on:true in
    let state, traced = build ~index:0 sp ledger in
    (state, [| traced |], fun () -> layer_metrics o sp ledger ~setup:traced ~plain_setup:plain)
  end
  else begin
    let kept = ref None and durations = Array.make times 0.0 in
    for i = 0 to times - 1 do
      (* Free the previous build first, so the peak is one build's. *)
      kept := None;
      if i > 0 then Gc.compact ();
      let state, d = build ~index:i sp (P.Ledger.create ~on:false) in
      kept := Some state;
      durations.(i) <- d;
      after state
    done;
    (Option.get !kept, durations, fun () -> ())
  end

(* The seed of a run's [i]-th graph: the run's own first, then streams
   derived from it.  Averaging a run over several graphs of one family
   keeps a single draw's path lengths from setting its rates. *)
let seed_for seed i = if i = 0 then seed else Disco_util.Rng.derive seed i

(* Graph -> every scheme built, compiled, primed and encoded. *)
let build_all ~seed kind ~n ~counts sp ledger =
  let t0 = Span.now () in
  let tb = P.testbed sp ledger ~seed kind ~n in
  P.materialise sp ledger tb;
  let max_count = List.fold_left (fun a (_, c) -> max a c) 0 counts in
  let flows = P.draw_flows ~seed ~n ~count:max_count in
  let schemes =
    List.map
      (fun r ->
        let count = List.assoc (Ex.Protocol.name_of r) counts in
        P.prepare sp ledger tb r ~flows ~count)
      (Ex.Routers.all ())
  in
  ((tb, schemes), Span.now () -. t0 -. ledger.P.Ledger.pause)

(* Walk every scheme's flows once: verdicts, the oracle check, the
   delivered share and Disco's stretch against Dijkstra. *)
let check_schemes o (tb : Ex.Testbed.t) w schemes ~later_pkts ~check =
  let graph = tb.Ex.Testbed.graph in
  let ws = Dijkstra.make_workspace graph in
  let cached = ref (-1, [||]) in
  let dist src dst =
    if fst !cached <> src then cached := (src, (Dijkstra.sssp ~ws graph src).Dijkstra.dist);
    (snd !cached).(dst)
  in
  let stretch_first = ref 0.0 and n_first = ref 0 in
  let stretch_later = ref 0.0 and n_later = ref 0 in
  let observe ~first ~src ~dst got =
    match got with
    | Some len ->
        let st = if src = dst then 1.0 else len /. dist src dst in
        if first then begin
          stretch_first := !stretch_first +. st;
          incr n_first
        end
        else begin
          stretch_later := !stretch_later +. st;
          incr n_later
        end
    | None -> ()
  in
  let packets = ref 0 and delivered = ref 0 and per_pkt = ref [] in
  List.iter
    (fun (s : P.scheme) ->
      let observe =
        if String.equal s.P.name "disco" then observe else fun ~first:_ ~src:_ ~dst:_ _ -> ()
      in
      let v = P.verify w s ~later_pkts ~check ~observe in
      o.attempted <- o.attempted + v.P.packets + v.P.checked;
      o.failed <- o.failed + v.P.failed;
      packets := !packets + v.P.packets;
      delivered := !delivered + v.P.delivered;
      let hops = float_of_int v.P.hops /. float_of_int v.P.packets in
      per_pkt := (s.P.name, hops) :: !per_pkt;
      set o ("hops_per_pkt." ^ s.P.name) hops;
      set o ("drop." ^ s.P.name ^ ".ttl") (frac v.P.ttl_drops v.P.packets);
      set o ("drop." ^ s.P.name ^ ".no_route") (frac v.P.no_route_drops v.P.packets))
    schemes;
  (* Rates per packet depend on path length, so the envelope keeps it. *)
  note o "hops_per_pkt"
    ("{"
    ^ String.concat ", "
        (List.rev_map (fun (s, h) -> Printf.sprintf "%S: %.3f" s h) !per_pkt)
    ^ "}");
  set o "delivered_frac" (frac !delivered !packets);
  set o "stretch.disco.first" (!stretch_first /. float_of_int (max 1 !n_first));
  set o "stretch.disco.later" (!stretch_later /. float_of_int (max 1 !n_later))

let first_cases o (tb : Ex.Testbed.t) (s : P.scheme) =
  let counts = Hashtbl.create 8 in
  for i = 0 to s.P.count - 1 do
    let case =
      match
        Core.Disco.classify_first tb.Ex.Testbed.disco ~src:s.P.first.P.bsrc.(i)
          ~dst:s.P.first.P.bdst.(i)
      with
      | Core.Disco.Trivial -> "trivial"
      | Direct_landmark -> "direct_landmark"
      | Direct_vicinity -> "direct_vicinity"
      | Known_address -> "known_address"
      | Via_group_member _ -> "via_group_member"
      | Resolution_fallback -> "resolution_fallback"
    in
    Hashtbl.replace counts case (1 + Option.value ~default:0 (Hashtbl.find_opt counts case))
  done;
  List.iter
    (fun c ->
      set o ("disco.first_case." ^ c)
        (frac (Option.value ~default:0 (Hashtbl.find_opt counts c)) s.P.count))
    Catalog.first_cases

(* Words the fast path allocates around one call, less what reading the
   counter itself costs. *)
let words_during f =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let overhead = b -. a in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  (r, w1 -. w0 -. overhead)

(* build-glp's figure: Disco's mean stretch over its first
   [figure_flows] flows, each walked with both headers and set against a
   Dijkstra tree per source. *)
let figure_flows = 64

let stretch_figure (tb : Ex.Testbed.t) (w : P.walker) ws (s : P.scheme) =
  let graph = tb.Ex.Testbed.graph in
  let acc = ref 0.0 and dist = ref [||] in
  for i = 0 to min figure_flows s.P.count - 1 do
    if i mod P.per_src = 0 then
      dist := (Dijkstra.sssp ~ws graph s.P.first.P.bsrc.(i)).Dijkstra.dist;
    List.iter
      (fun b ->
        P.walk_at w s b i;
        if w.P.pkt.P.D.pdelivered then
          acc :=
            !acc
            +. P.trail_length graph w.P.trail w.P.pkt.P.D.phops
               /. !dist.(b.P.bdst.(i)))
      [ s.P.first; s.P.later ]
  done;
  !acc /. float_of_int (2 * min figure_flows s.P.count)

(* Untraced timing: [tasks] interleaved with the probe, which runs before
   each task every round.  Returns the machine-speed scale — the
   reference probe time over the probe's mean — and each task's mean
   time, scaled by it. *)
let timed ~seconds tasks =
  Probe.prepare ();
  let all = List.concat_map (fun t -> [ Probe.run; t ]) tasks in
  let mean = P.interleave ~seconds (Array.of_list all) in
  let k = List.length tasks in
  let probe = ref 0.0 in
  for i = 0 to k - 1 do
    probe := !probe +. mean.(2 * i)
  done;
  let scale = Probe.ref_s /. (!probe /. float_of_int k) in
  (scale, Array.init k (fun i -> mean.((2 * i) + 1) *. scale))

(* build-glp: the eager pipeline on [size.graphs] graphs, each then
   timed on its flows' first packets.  Later headers are walked by the
   check only. *)
let build_glp o sp ~size ~seed ~seconds =
  let n = size.glp_n and counts = size.glp_flows and times = size.graphs in
  note o "n" (string_of_int n);
  note o "flows" (flows_json counts);
  let measured = ref [] in
  let after ((tb : Ex.Testbed.t), schemes) =
    let w = P.walker tb.Ex.Testbed.graph schemes in
    let disco = List.find (fun s -> String.equal s.P.name "disco") schemes in
    let ws = Dijkstra.make_workspace tb.Ex.Testbed.graph in
    let figure () = ignore (stretch_figure tb w ws disco : float) in
    let mix (s : P.scheme) () = ignore (P.route_batch w s s.P.first : int) in
    measured :=
      timed ~seconds:(seconds /. float_of_int times) (figure :: List.map mix schemes)
      :: !measured
  in
  let (tb, schemes), durations, traced_layers =
    setups ~after o sp ~times (fun ~index ->
        build_all ~seed:(seed_for seed index) Gen.Glp ~n ~counts)
  in
  note o "graphs" (string_of_int (Array.length durations));
  let w = P.walker tb.Ex.Testbed.graph schemes in
  check_schemes o tb w schemes ~later_pkts:0 ~check:size.check;
  if Span.enabled sp then begin
    traced_layers ();
    first_cases o tb (List.find (fun s -> String.equal s.P.name "disco") schemes);
    (* Per-hop cost with first and later headers timed apart, one
       untimed pass each counting hops and allocation. *)
    let words = ref 0.0 and hops = ref 0 in
    let hops_of (s : P.scheme) b =
      let h, wd = words_during (fun () -> P.route_batch w s b) in
      words := !words +. wd;
      hops := !hops + h;
      h
    in
    let batches = List.concat_map (fun s -> [ (s, s.P.first); (s, s.P.later) ]) schemes in
    let batch_hops = List.map (fun (s, b) -> hops_of s b) batches in
    set o "walk.words_per_hop" (!words /. float_of_int (max 1 !hops));
    let decode () = List.iter (fun (_, b) -> P.decode_batch w b) batches in
    let walk ((s : P.scheme), b) () =
      ignore (P.route_batch w s b : int)
    in
    let mean = P.interleave ~seconds (Array.of_list (decode :: List.map walk batches)) in
    let pkts = List.fold_left (fun a (_, b) -> a + Array.length b.P.bsrc) 0 batches in
    set o "decode.ns_per_pkt" (mean.(0) /. float_of_int pkts *. 1e9);
    List.iteri
      (fun i ((s : P.scheme), h) ->
        let kind = if i mod 2 = 0 then "first" else "later" in
        set o
          ("hop." ^ s.P.name ^ "." ^ kind ^ ".ns")
          (if h = 0 then 0.0 else mean.(i + 1) /. float_of_int h *. 1e9))
      (List.combine (List.map fst batches) batch_hops)
  end
  else begin
    set o "state_bytes.disco" (mean_packed_bytes tb);
    (* Every graph runs the same flow counts, so a rate over the run is
       total packets over total scaled time. *)
    let total i = List.fold_left (fun a (_, t) -> a +. t.(i)) 0.0 !measured in
    let graphs = float_of_int (List.length !measured) in
    let scales = Array.of_list (List.map fst !measured) in
    note o "speed_scale" (Printf.sprintf "%.6f" (P.median scales));
    set o "setup_s" (P.median durations *. P.median scales);
    set o "figure_s" (total 0 /. graphs);
    List.iteri
      (fun i (s : P.scheme) ->
        set o ("pps." ^ s.P.name)
          (graphs *. float_of_int s.P.count /. total (i + 1)))
      schemes
  end

(* One router's figure results from two repetitions, pooled. *)
let pool (a : Ex.Engine.sampled) (b : Ex.Engine.sampled) =
  {
    a with
    Ex.Engine.first = Array.append a.Ex.Engine.first b.Ex.Engine.first;
    later = Array.append a.Ex.Engine.later b.Ex.Engine.later;
    first_failures = a.Ex.Engine.first_failures + b.Ex.Engine.first_failures;
    later_failures = a.Ex.Engine.later_failures + b.Ex.Engine.later_failures;
    elapsed_s = a.Ex.Engine.elapsed_s +. b.Ex.Engine.elapsed_s;
  }

(* figure-router: the paper's figure path, Engine.sample_pairs over every
   router on a fresh testbed, so its lazy fills are paid inside the
   figure as they are when the figures are made. *)
let figure o sp ~size ~seed ~seconds =
  let n = size.router_n in
  note o "n" (string_of_int n);
  note o "pairs" (string_of_int size.pairs);
  note o "jobs" (string_of_int figure_jobs);
  let routers = Ex.Routers.all () in
  (* A rep sets up [router_setups] times, keeps the last testbed and
     reports the median setup: the lazy testbed builds in a fraction of a
     second, too short to time once. *)
  let rep ~seed sp ledger =
    let setup = Array.make router_setups 0.0 and tb = ref None in
    for i = 0 to router_setups - 1 do
      tb := None;
      let t0 = Span.now () and pause0 = ledger.P.Ledger.pause in
      let sp = if i = router_setups - 1 then sp else Span.create ~on:false in
      tb := Some (P.testbed sp ledger ~seed Gen.Router_level ~n);
      setup.(i) <- Span.now () -. t0 -. (ledger.P.Ledger.pause -. pause0)
    done;
    let tb = Option.get !tb and setup = P.median setup in
    let t1 = Span.now () in
    let sampled =
      Ex.Engine.sample_pairs ~pairs:size.pairs ~jobs:figure_jobs ~routers tb
    in
    (tb, sampled, setup, Span.now () -. t1)
  in
  let tb, sampled =
    if Span.enabled sp then begin
      Gc.compact ();
      let _, _, plain, _ = rep ~seed (Span.create ~on:false) (P.Ledger.create ~on:true) in
      Gc.compact ();
      let ledger = P.Ledger.create ~on:true in
      let tb, sampled, setup, _ = rep ~seed sp ledger in
      layer_metrics o sp ledger ~setup ~plain_setup:plain;
      List.iter
        (fun (s : Ex.Engine.sampled) -> set o ("engine." ^ s.Ex.Engine.router ^ ".s") s.Ex.Engine.elapsed_s)
        sampled;
      note o "reps" "1";
      (tb, sampled)
    end
    else begin
      (* Whole figures, each on a fresh testbed of its own graph, scaled
         by the probe just before it; the figure's numbers pool every
         repetition. *)
      let setups = ref [] and figures = ref [] and kept = ref None in
      let pooled = ref None in
      let start = Span.now () in
      while List.length !figures < figure_reps || Span.now () -. start < seconds do
        kept := None;
        Gc.compact ();
        Probe.prepare ();
        let probe = P.interleave ~seconds:0.5 [| Probe.run |] in
        let scale = Probe.ref_s /. probe.(0) in
        let seed = seed_for seed (List.length !figures) in
        let tb, sampled, setup, figure = rep ~seed sp (P.Ledger.create ~on:false) in
        kept := Some tb;
        setups := (setup *. scale) :: !setups;
        figures := (figure *. scale) :: !figures;
        let sampled =
          List.map
            (fun (s : Ex.Engine.sampled) -> { s with Ex.Engine.elapsed_s = s.Ex.Engine.elapsed_s *. scale })
            sampled
        in
        pooled :=
          Some
            (match !pooled with
            | None -> sampled
            | Some acc -> List.map2 pool acc sampled)
      done;
      let figures = Array.of_list !figures in
      set o "setup_s" (P.median (Array.of_list !setups));
      set o "figure_s" (Array.fold_left ( +. ) 0.0 figures /. float_of_int (Array.length figures));
      note o "reps" (string_of_int (Array.length figures));
      (Option.get !kept, Option.get !pooled)
    end
  in
  (* The output check on this graph, then the figure's own numbers. *)
  let schemes =
    let flows = P.draw_flows ~seed ~n ~count:size.check in
    let off = Span.create ~on:false and ledger = P.Ledger.create ~on:false in
    List.map (fun r -> P.prepare off ledger tb r ~flows ~count:size.check) routers
  in
  check_schemes o tb (P.walker tb.Ex.Testbed.graph schemes) schemes ~later_pkts:1 ~check:size.check;
  if Span.enabled sp then
    first_cases o tb (List.find (fun s -> String.equal s.P.name "disco") schemes);
  let walks = ref 0 and delivered = ref 0 in
  List.iter
    (fun (s : Ex.Engine.sampled) ->
      let ok = Array.length s.Ex.Engine.first + Array.length s.Ex.Engine.later in
      let lost = s.Ex.Engine.first_failures + s.Ex.Engine.later_failures in
      walks := !walks + ok + lost;
      delivered := !delivered + ok;
      o.attempted <- o.attempted + ok + lost;
      if (Disco_check.Spec.find s.Ex.Engine.router).Disco_check.Spec.guaranteed_delivery then
        o.failed <- o.failed + lost;
      set o ("pps." ^ s.Ex.Engine.router) (float_of_int (ok + lost) /. s.Ex.Engine.elapsed_s);
      if String.equal s.Ex.Engine.router "disco" then begin
        set o "stretch.disco.first" (Disco_util.Stats.mean s.Ex.Engine.first);
        set o "stretch.disco.later" (Disco_util.Stats.mean s.Ex.Engine.later)
      end)
    sampled;
  set o "delivered_frac" (frac !delivered !walks);
  if not (Span.enabled sp) then set o "state_bytes.disco" (mean_packed_bytes tb)

let run ~size ~workload ~seed ~seconds ~trace =
  let o = { metrics = Hashtbl.create 128; attempted = 0; failed = 0; envelope = [] } in
  let sp = Span.create ~on:trace in
  if trace then List.iter (fun (k, _) -> set o k 0.0) Catalog.per_layer;
  note o "workload" (Printf.sprintf "%S" workload);
  note o "seed" (string_of_int seed);
  note o "seconds" (Printf.sprintf "%g" seconds);
  note o "trace" (string_of_bool trace);
  note o "git_rev" (Printf.sprintf "%S" (Host.git_rev ()));
  note o "nproc" (string_of_int (Domain.recommended_domain_count ()));
  note o "mem_total_kb" (string_of_int (Host.mem_total_kb ()));
  note o "ocaml" (Printf.sprintf "%S" Sys.ocaml_version);
  (match workload with
  | "build-glp" -> build_glp o sp ~size ~seed ~seconds
  | "figure-router" -> figure o sp ~size ~seed ~seconds
  | w -> invalid_arg ("unknown workload " ^ w ^ "; known: " ^ String.concat ", " names));
  peak_rss o;
  (o, sp)

(* The metrics this mode prints, in catalogue order.
   @raise Failure on a metric the run did not produce or a non-finite one. *)
let reported o ~trace =
  List.map
    (fun (name, unit) ->
      match Hashtbl.find_opt o.metrics name with
      | Some v when Float.is_finite v -> (name, unit, v)
      | Some _ -> failwith ("metric " ^ name ^ " is not finite")
      | None -> failwith ("metric " ^ name ^ " was not measured"))
    (if trace then Catalog.per_layer else Catalog.end_to_end)

let envelope_json o =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) o.envelope) ^ "}"

let result_json o ~trace =
  let metrics =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      (reported o ~trace)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.failed = 0) o.attempted o.failed (String.concat ", " metrics)
