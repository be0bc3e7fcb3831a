(* The route pipeline, driven from outside: graph -> control-plane build
   -> compile -> prime -> encode -> forward.  Every stage is a call into a
   layer's public functions, wrapped in a span named after the layer, so
   the traced run can cost each layer and the untraced run pays nothing
   for the instrumentation. *)

module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Core = Disco_core
module D = Core.Dataplane
module Ex = Disco_experiments
module Protocol = Ex.Protocol
module Testbed = Ex.Testbed

(* Testbed's derived streams, so the state built here is the state
   [Testbed.make] would build for the same seed. *)
let rng_for seed purpose = Rng.create ((seed * 1_000_003) + purpose)

(* Retained-heap ledger for the traced run: after a build step, a full
   major collection, and the growth of the live heap since the previous
   checkpoint is charged to the keys the step names.  Off-heap Bigarray
   slabs are not on the OCaml heap and are not counted. *)
module Ledger = struct
  type t = {
    on : bool;
    mutable last : float;
    mutable pause : float;  (* seconds spent collecting, kept out of setup *)
    bytes : (string, float) Hashtbl.t;
  }

  let live_bytes () =
    Gc.full_major ();
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))

  let create ~on =
    { on; last = (if on then live_bytes () else 0.0); pause = 0.0; bytes = Hashtbl.create 32 }

  let charge t keys =
    if t.on then begin
      let t0 = Span.now () in
      let live = live_bytes () in
      let delta = live -. t.last in
      t.last <- live;
      List.iter
        (fun k ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.bytes k) in
          Hashtbl.replace t.bytes k (prev +. delta))
        keys;
      t.pause <- t.pause +. (Span.now () -. t0)
    end

  let get t k = Option.value ~default:0.0 (Hashtbl.find_opt t.bytes k)
end

(* Graph plus the shared Disco/NDDisco/S4 instances, composed exactly as
   [Testbed.of_graph] composes them but one layer call at a time.  Views,
   trees and balls stay lazy here; {!materialise} forces them. *)
let testbed sp ledger ~seed kind ~n =
  let graph =
    Span.record sp "gen" (fun () -> Gen.by_kind ~rng:(rng_for seed 1) kind ~n)
  in
  Ledger.charge ledger [];
  let params = Core.Params.default in
  let nd =
    Span.record sp "nddisco.build" (fun () ->
        Core.Nddisco.build ~params ~rng:(rng_for seed 2) graph)
  in
  Ledger.charge ledger [ "nddisco.bytes" ];
  let groups = Span.record sp "groups.build" (fun () -> Core.Groups.of_nddisco nd) in
  let overlay =
    Span.record sp "overlay.build" (fun () ->
        Core.Overlay.build ~rng:(rng_for seed 3) nd groups)
  in
  Ledger.charge ledger [ "disco.bytes" ];
  let resolution = Span.record sp "resolution" (fun () -> Core.Resolution.build nd) in
  Ledger.charge ledger [ "disco.bytes"; "resolution.bytes" ];
  let s4 =
    Span.record sp "s4.build" (fun () ->
        Disco_baselines.S4.build ~params
          ~landmark_ids:nd.Core.Nddisco.landmarks.Core.Landmarks.ids
          ~rng:(rng_for seed 4) graph)
  in
  Ledger.charge ledger [ "s4.bytes" ];
  {
    Testbed.seed;
    kind = Some kind;
    graph;
    disco = { Core.Disco.nd; groups; overlay; resolution };
    s4;
    vrr_cache = None;
  }

(* The eager control plane: every vicinity, every landmark tree, every S4
   ball. *)
let materialise sp ledger (tb : Testbed.t) =
  let nd = Testbed.nd tb in
  Span.record sp "vicinity" (fun () -> Core.Vicinity.precompute_all nd.Core.Nddisco.vicinity);
  Ledger.charge ledger [ "nddisco.bytes"; "vicinity.bytes" ];
  Span.record sp "landmark_trees" (fun () ->
      Array.iter
        (fun lm -> ignore (Core.Landmark_trees.parents nd.Core.Nddisco.trees ~lm : int array))
        nd.Core.Nddisco.landmarks.Core.Landmarks.ids);
  Ledger.charge ledger [ "nddisco.bytes"; "landmark_trees.bytes" ];
  Span.record sp "s4.balls" (fun () ->
      for v = 0 to Graph.n tb.Testbed.graph - 1 do
        ignore (Disco_baselines.S4.ball tb.Testbed.s4 v : Disco_baselines.S4.ball)
      done);
  Ledger.charge ledger [ "s4.bytes" ]

(* Flows: [count / per_src] sources drawn uniformly, [per_src]
   destinations each, so one shortest-path tree per source serves a whole
   group.  A scheme with a smaller flow budget takes a prefix. *)
type flows = { src : int array; dst : int array }

let per_src = 8

let draw_flows ~seed ~n ~count =
  let rng = rng_for seed 173 in
  let src = Array.make count 0 and dst = Array.make count 0 in
  let s = ref 0 in
  for i = 0 to count - 1 do
    if i mod per_src = 0 then s := Rng.int rng n;
    let rec draw () =
      let d = Rng.int rng n in
      if d = !s then draw () else d
    in
    src.(i) <- !s;
    dst.(i) <- draw ()
  done;
  { src; dst }

(* A scheme's headers on the wire, back to back. *)
type batch = { bsrc : int array; bdst : int array; off : int array; arena : Bytes.t }

let encode graph ~srcs ~dsts (headers : D.header array) =
  let count = Array.length headers in
  let off = Array.make count 0 in
  let total = ref 0 in
  for i = 0 to count - 1 do
    off.(i) <- !total;
    total := !total + D.encoded_size graph ~src:srcs.(i) headers.(i)
  done;
  let arena = Bytes.create !total in
  for i = 0 to count - 1 do
    ignore (D.encode_header graph ~src:srcs.(i) headers.(i) arena ~pos:off.(i) : int)
  done;
  { bsrc = srcs; bdst = dsts; off; arena }

(* One scheme, built, compiled, primed and encoded for its flows.  The
   router's abstract state is captured by the oracle closures. *)
type scheme = {
  name : string;
  guaranteed : bool;  (* Spec.guaranteed_delivery: a drop is a failure *)
  ttl : int;
  plan : D.fast_plan;
  count : int;  (* flows routed *)
  first : batch;
  later : batch;
  oracle_first : src:int -> dst:int -> int list option;
  oracle_later : src:int -> dst:int -> int list option;
}

let prepare sp ledger (tb : Testbed.t) (module R : Protocol.ROUTER) ~flows ~count =
  let graph = tb.Testbed.graph in
  let rt = Span.record sp (R.name ^ ".build") (fun () -> R.build tb) in
  let plan = Span.record sp ("compile." ^ R.name) (fun () -> R.compile rt) in
  Span.record sp ("prime." ^ R.name) (fun () ->
      for i = 0 to count - 1 do
        plan.D.fprime ~src:flows.src.(i) ~dst:flows.dst.(i)
      done);
  Ledger.charge ledger [ R.name ^ ".bytes" ];
  let tel = Disco_util.Telemetry.create () in
  let srcs = Array.sub flows.src 0 count and dsts = Array.sub flows.dst 0 count in
  let headers f = Array.init count (fun i -> f ~src:flows.src.(i) ~dst:flows.dst.(i)) in
  let first, later =
    Span.record sp ("encode." ^ R.name) (fun () ->
        ( encode graph ~srcs ~dsts (headers (R.first_header rt ~tel)),
          encode graph ~srcs ~dsts (headers (R.later_header rt ~tel)) ))
  in
  Ledger.charge ledger [];
  {
    name = R.name;
    guaranteed = (Disco_check.Spec.find R.name).Disco_check.Spec.guaranteed_delivery;
    ttl = R.ttl_factor * Graph.n graph;
    plan;
    count;
    first;
    later;
    oracle_first = (fun ~src ~dst -> R.oracle_first rt ~tel ~src ~dst);
    oracle_later = (fun ~src ~dst -> R.oracle_later rt ~tel ~src ~dst);
  }

(* {1 Forwarding} *)

type walker = { graph : Graph.t; pkt : D.packet; trail : int array }

let walker graph schemes =
  let ttl = List.fold_left (fun a s -> max a s.ttl) 0 schemes in
  { graph; pkt = D.packet_create graph; trail = Array.make (ttl + 1) (-1) }

let walk_at w s b i =
  let src = Array.unsafe_get b.bsrc i in
  D.decode_into w.graph w.pkt b.arena ~pos:(Array.unsafe_get b.off i) ~src;
  D.fast_walk w.graph ~step:s.plan.D.fstep w.pkt ~src ~ttl:s.ttl ~trail:w.trail

(* One header of every flow. *)
let route_batch w s b =
  let hops = ref 0 in
  for i = 0 to s.count - 1 do
    walk_at w s b i;
    hops := !hops + w.pkt.D.phops
  done;
  !hops

let decode_batch w b =
  for i = 0 to Array.length b.bsrc - 1 do
    D.decode_into w.graph w.pkt b.arena ~pos:(Array.unsafe_get b.off i)
      ~src:(Array.unsafe_get b.bsrc i)
  done

(* {1 Timing}

   Other tenants of the machine slow it down for seconds at a time.
   Rounds therefore run every task in turn — each repeated for about
   [slice] seconds, at least once — until the time is up, so every task
   sees the same mix of fast and slow stretches.  {!Probe}, timed the
   same way, measures that mix. *)

let slice = 0.05

(* At least two rounds, then rounds until [seconds] have gone by.
   Returns each task's mean repetition time. *)
let interleave ~seconds (tasks : (unit -> unit) array) =
  let k = Array.length tasks in
  let sum = Array.make k 0.0 and reps = Array.make k 0 in
  let start = Span.now () in
  let rounds = ref 0 in
  while !rounds < 2 || Span.now () -. start < seconds do
    Array.iteri
      (fun i f ->
        let spent = ref 0.0 in
        while !spent < slice do
          let t0 = Span.now () in
          f ();
          let d = Span.now () -. t0 in
          spent := !spent +. Float.max d 1e-9;
          sum.(i) <- sum.(i) +. d;
          reps.(i) <- reps.(i) + 1
        done)
      tasks;
    incr rounds
  done;
  Array.mapi (fun i s -> s /. float_of_int reps.(i)) sum

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k = 0 then Float.nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* {1 Output check} *)

(* Weighted length of the walk in [trail.(0..hops)]. *)
let trail_length graph trail hops =
  let len = ref 0.0 in
  for j = 0 to hops - 1 do
    match Graph.edge_weight graph trail.(j) trail.(j + 1) with
    | Some wt -> len := !len +. wt
    | None -> len := Float.nan
  done;
  !len

type verdicts = {
  mutable packets : int;  (* packets of the flow mix *)
  mutable delivered : int;
  mutable hops : int;
  mutable ttl_drops : int;
  mutable no_route_drops : int;
  mutable failed : int;  (* guaranteed drops, protocol errors, oracle mismatches *)
  mutable checked : int;  (* oracle comparisons *)
}

let same_length a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* Walk every flow's first and later header once, weight each verdict by
   the packets of the mix that carry that header (a workload that sends
   first packets only weighs later headers 0), and compare the first
   [check] flows against the scheme's closed-form oracles: the same
   verdict and, when delivered, the same weighted length.  [observe]
   sees each walk's weighted length, [None] when dropped. *)
let verify w s ~later_pkts ~check ~observe =
  let v =
    { packets = 0; delivered = 0; hops = 0; ttl_drops = 0; no_route_drops = 0;
      failed = 0; checked = 0 }
  in
  let outcome b i ~weight =
    walk_at w s b i;
    let p = w.pkt in
    v.packets <- v.packets + weight;
    v.hops <- v.hops + (weight * p.D.phops);
    if p.D.pdelivered then v.delivered <- v.delivered + weight
    else if s.guaranteed || p.D.pdrop = D.drop_protocol then
      v.failed <- v.failed + max 1 weight;
    if p.D.pdrop = D.drop_ttl then v.ttl_drops <- v.ttl_drops + weight;
    if p.D.pdrop = D.drop_no_route then v.no_route_drops <- v.no_route_drops + weight;
    if p.D.pdelivered then Some (trail_length w.graph w.trail p.D.phops) else None
  in
  let compare got oracle =
    v.checked <- v.checked + 1;
    let agrees =
      match (got, oracle) with
      | Some len, Some path -> same_length len (Dijkstra.path_length w.graph path)
      | None, None -> true
      | Some _, None | None, Some _ -> false
    in
    if not agrees then v.failed <- v.failed + 1
  in
  for i = 0 to s.count - 1 do
    let src = s.first.bsrc.(i) and dst = s.first.bdst.(i) in
    let got = outcome s.first i ~weight:1 in
    observe ~first:true ~src ~dst got;
    if i < check then compare got (s.oracle_first ~src ~dst);
    let got = outcome s.later i ~weight:later_pkts in
    observe ~first:false ~src ~dst got;
    if i < check then compare got (s.oracle_later ~src ~dst)
  done;
  v
