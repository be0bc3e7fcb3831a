(* Batched fast-path throughput engine (`bench --figure throughput`).

   Each scheme's headers are pre-encoded once into a single wire arena
   (the PR-3 codec), the scheme is compiled to its zero-alloc face
   ([ROUTER.compile]) and every lazily-built per-flow cache is forced
   ([fprime]) — then the timed loop is nothing but [decode_into] +
   [fast_walk] over one preallocated scratch packet.  Gc.minor_words
   around the loop confirms the L7 discipline at runtime: words/hop must
   sit at ~0, every hop taken through array indexing alone.  Rates are reported as hops/sec and packets/sec
   per scheme for first (resolving) and later (converged) headers. *)

module Graph = Disco_graph.Graph
module Telemetry = Disco_util.Telemetry
module D = Disco_core.Dataplane

type row = {
  scheme : string;
  kind : string;  (* "first" | "later" *)
  flows : int;  (* distinct pre-encoded headers *)
  packets : int;  (* flows * reps routed in the timed loop *)
  hops : int;
  delivered : int;
  seconds : float;
  minor_words : float;
  hops_per_sec : float;
  packets_per_sec : float;
  words_per_hop : float;
}

(* One scheme-kind batch: every flow's header on the wire, back to back. *)
type batch = { srcs : int array; offsets : int array; arena : Bytes.t }

(* Sampled flows, deterministic in the testbed seed (their own RNG
   stream). *)
let sample_flows tb ~count =
  let rng = Testbed.rng tb ~purpose:73 in
  let n = Graph.n tb.Testbed.graph in
  Array.init count (fun _ ->
      let s = Disco_util.Rng.int rng n in
      let rec draw () =
        let d = Disco_util.Rng.int rng n in
        if d = s then draw () else d
      in
      (s, draw ()))

let encode_batch (type a) (module R : Protocol.ROUTER with type t = a)
    (rt : a) ~graph ~kind ~flows (plan : D.fast_plan) =
  let tel = Telemetry.create () in
  let header =
    match kind with
    | "first" -> fun ~src ~dst -> R.first_header rt ~tel ~src ~dst
    | _ -> fun ~src ~dst -> R.later_header rt ~tel ~src ~dst
  in
  let count = Array.length flows in
  let srcs = Array.map fst flows in
  let headers =
    Array.map
      (fun (src, dst) ->
        plan.D.fprime ~src ~dst;
        header ~src ~dst)
      flows
  in
  let offsets = Array.make count 0 in
  let total = ref 0 in
  Array.iteri
    (fun i h ->
      offsets.(i) <- !total;
      total := !total + D.encoded_size graph ~src:srcs.(i) h)
    headers;
  let arena = Bytes.create !total in
  Array.iteri
    (fun i h ->
      ignore (D.encode_header graph ~src:srcs.(i) h arena ~pos:offsets.(i) : int))
    headers;
  { srcs; offsets; arena }

(* The measured region: rehydrate each flow from the arena and route it.
   Everything here must be allocation-free — [decode_into], [fast_walk]
   and the registered [fstep]s are all on the L7 hot manifest. *)
let route_batch graph step pkt batch ~ttl ~trail ~reps hops delivered =
  let count = Array.length batch.srcs in
  for _ = 1 to reps do
    for i = 0 to count - 1 do
      let src = Array.unsafe_get batch.srcs i in
      D.decode_into graph pkt batch.arena
        ~pos:(Array.unsafe_get batch.offsets i)
        ~src;
      D.fast_walk graph ~step pkt ~src ~ttl ~trail;
      hops := !hops + pkt.D.phops;
      if pkt.D.pdelivered then incr delivered
    done
  done

let measure_kind (type a) (module R : Protocol.ROUTER with type t = a)
    (rt : a) ~graph ~kind ~flows ~reps =
  let plan = R.compile rt in
  let batch = encode_batch (module R) rt ~graph ~kind ~flows plan in
  let ttl = R.ttl_factor * Graph.n graph in
  let pkt = D.packet_create graph in
  let trail = Array.make (ttl + 1) (-1) in
  let hops = ref 0 and delivered = ref 0 in
  (* Warm-up rep: fault in code paths and touch the arena once. *)
  route_batch graph plan.D.fstep pkt batch ~ttl ~trail ~reps:1 hops delivered;
  hops := 0;
  delivered := 0;
  Gc.full_major ();
  let before = Gc.minor_words () in
  let t0 = Telemetry.now_s () in
  route_batch graph plan.D.fstep pkt batch ~ttl ~trail ~reps hops delivered;
  let seconds = Telemetry.now_s () -. t0 in
  let minor_words = Gc.minor_words () -. before in
  let flows_n = Array.length flows in
  let packets = flows_n * reps in
  let rate x = if seconds > 0.0 then x /. seconds else 0.0 in
  {
    scheme = R.name;
    kind;
    flows = flows_n;
    packets;
    hops = !hops;
    delivered = !delivered;
    seconds;
    minor_words;
    hops_per_sec = rate (float_of_int !hops);
    packets_per_sec = rate (float_of_int packets);
    words_per_hop =
      (if !hops = 0 then 0.0 else minor_words /. float_of_int !hops);
  }

let measure_scheme tb ~flows ~reps (p : Protocol.packed) =
  let (module R) = p in
  let rt = R.build tb in
  let graph = tb.Testbed.graph in
  [
    measure_kind (module R) rt ~graph ~kind:"first" ~flows ~reps;
    measure_kind (module R) rt ~graph ~kind:"later" ~flows ~reps;
  ]

let measure ~seed ~n ~flows ~reps =
  let tb = Testbed.make ~seed Disco_graph.Gen.Geometric ~n in
  let pairs = sample_flows tb ~count:flows in
  List.concat_map (measure_scheme tb ~flows:pairs ~reps) (Routers.all ())

let json_of_rows ~seed ~n ~flows ~reps rows =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf
       "{\n  \"figure\": \"throughput\",\n  \"seed\": %d,\n  \"n\": %d,\n  \
        \"flows_per_row\": %d,\n  \"reps\": %d,\n  \"rows\": [\n" seed n flows
       reps);
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"scheme\": %S, \"kind\": %S, \"flows\": %d, \"packets\": \
            %d, \"hops\": %d, \"delivered\": %d, \"seconds\": %.6f, \
            \"minor_words\": %.0f, \"hops_per_sec\": %.0f, \
            \"packets_per_sec\": %.0f, \"words_per_hop\": %.4f}%s\n"
           r.scheme r.kind r.flows r.packets r.hops r.delivered r.seconds
           r.minor_words r.hops_per_sec r.packets_per_sec r.words_per_hop
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
