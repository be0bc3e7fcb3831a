module Core = Disco_core
module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Telemetry = Disco_util.Telemetry
module D = Core.Dataplane

(* RNG purposes for adapters that draw their own randomness; disjoint from
   the figure runners' purposes (which start at 100 via Testbed.rng). *)
let bvr_purpose = 41
let tz_purpose = 43

(* Every oracle below uses the forward-only [To_destination] shortcut
   heuristic where one applies: the data plane diverts from knowledge at
   the node actually holding the packet, so only forward-direction
   shortcuts are comparable hop for hop (the paper's stretch bounds hold a
   fortiori — To_destination never lengthens the raw route). *)

module Disco_router = struct
  type t = Core.Disco.t

  let name = "disco"
  let flat_names = "yes, stretch-bounded"
  let build (tb : Testbed.t) = tb.Testbed.disco
  let ttl_factor = Core.Forwarding.ttl_factor

  let first_header t ~tel:_ ~src ~dst = Core.Forwarding.first_header t ~src ~dst
  let later_header t ~tel:_ ~src ~dst = Core.Forwarding.later_header t ~src ~dst

  let oracle_first t ~tel:_ ~src ~dst =
    Some
      (Core.Disco.route_first ~heuristic:Core.Shortcut.To_destination t ~src
         ~dst)

  let oracle_later t ~tel:_ ~src ~dst =
    Some
      (Core.Disco.route_later ~heuristic:Core.Shortcut.To_destination t ~src
         ~dst)

  let state_entries t v =
    Core.Disco.total_entries (Core.Disco.state_entries t v)

  let state_bytes t v = Core.Disco.packed_state_bytes t v

  (* Routing only reads converged state. *)
  let fork t = t

  let compile t =
    let f = Core.Forwarding.compile t in
    { D.fstep = Core.Forwarding.fast_step f; D.fprime = Core.Forwarding.fast_prime f }
end

module Nddisco_router = struct
  (* NDDisco's contract assumes the source already knows the destination's
     address; resolution load still sits on its landmarks. *)
  type t = { nd : Core.Nddisco.t; resolution : Core.Resolution.t }

  let name = "nddisco"
  let flat_names = "no (addresses)"

  let build (tb : Testbed.t) =
    { nd = Testbed.nd tb; resolution = tb.Testbed.disco.Core.Disco.resolution }

  let ttl_factor = Core.Forwarding.ttl_factor

  let first_header t ~tel:_ ~src ~dst =
    Core.Forwarding.first_header_nd t.nd ~src ~dst

  let later_header t ~tel:_ ~src ~dst =
    Core.Forwarding.later_header_nd t.nd ~src ~dst

  let oracle_first t ~tel:_ ~src ~dst =
    Some
      (Core.Nddisco.route_first ~heuristic:Core.Shortcut.To_destination t.nd
         ~src ~dst)

  let oracle_later t ~tel:_ ~src ~dst =
    Some
      (Core.Nddisco.route_later ~heuristic:Core.Shortcut.To_destination t.nd
         ~src ~dst)

  let state_entries t v =
    let resolution_entries = Core.Resolution.entries_at t.resolution v in
    Core.Nddisco.total_entries
      (Core.Nddisco.state_entries ~resolution_entries t.nd v)

  let state_bytes t v =
    (* NDDisco's packed share plus — at landmarks — the resolution shard:
       a 16-byte slot and the stored packed address per owned name. *)
    let resolution =
      if Core.Resolution.entries_at t.resolution v = 0 then 0.0
      else begin
        let owners = Core.Resolution.owners_by_node t.resolution in
        let acc = ref 0.0 in
        Array.iteri
          (fun w o ->
            if o = v then
              acc :=
                !acc +. 16.0
                +. float_of_int (8 + Core.Nddisco.address_slab_bytes t.nd w))
          owners;
        !acc
      end
    in
    Core.Nddisco.packed_state_bytes t.nd v +. resolution

  let fork t = t

  let compile t =
    let f = Core.Forwarding.compile_nd t.nd in
    {
      D.fstep = Core.Forwarding.fast_step_nd f;
      D.fprime = Core.Forwarding.fast_prime_nd f;
    }
end

module S4_router = struct
  module S4 = Disco_baselines.S4

  type t = {
    s4 : S4.t;
    (* cluster_sizes accumulates every node's ball — O(total cluster
       state), which million-node scaling runs must not pay at build
       time. Forced only by the state queries, which the engine contract
       keeps on the original handle (no cross-domain force). *)
    sizes : (int array * int array) Lazy.t;
  }

  let name = "s4"
  let flat_names = "lookup detour"

  let build (tb : Testbed.t) =
    let s4 = tb.Testbed.s4 in
    { s4; sizes = lazy (S4.cluster_sizes s4, S4.resolution_loads s4) }

  let ttl_factor = S4.ttl_factor
  let first_header t ~tel:_ ~src ~dst = S4.first_header t.s4 ~src ~dst
  let later_header t ~tel:_ ~src ~dst = S4.later_header t.s4 ~src ~dst
  let oracle_first t ~tel:_ ~src ~dst = Some (S4.route_first t.s4 ~src ~dst)
  let oracle_later t ~tel:_ ~src ~dst = Some (S4.route_later t.s4 ~src ~dst)

  let state_entries t v =
    let cluster_sizes, resolution_loads = Lazy.force t.sizes in
    S4.state_entries t.s4 ~cluster_sizes ~resolution_loads v

  let state_bytes t v =
    let cluster_sizes, resolution_loads = Lazy.force t.sizes in
    S4.state_bytes t.s4 ~cluster_sizes ~resolution_loads v

  let fork t = t

  let compile t =
    let f = S4.compile t.s4 in
    { D.fstep = S4.fast_step f; D.fprime = S4.fast_prime f }
end

module Vrr_router = struct
  module Vrr = Disco_baselines.Vrr

  type t = { vrr : Vrr.t; state : int array }

  let name = "vrr"
  let flat_names = "yes, unbounded stretch"

  let build (tb : Testbed.t) =
    let vrr = Testbed.vrr tb in
    { vrr; state = Vrr.state_entries vrr }

  let ttl_factor = Vrr.ttl_factor

  (* VRR has no first/later distinction: every packet forwards greedily on
     the virtual ring. *)
  let first_header t ~tel:_ ~src ~dst = Vrr.packet_header t.vrr ~src ~dst
  let later_header = first_header
  let oracle_first t ~tel:_ ~src ~dst = Vrr.route t.vrr ~src ~dst
  let oracle_later = oracle_first
  let state_entries t v = t.state.(v)
  let state_bytes t v = Vrr.state_bytes t.vrr v
  let fork t = t

  let compile t =
    let f = Vrr.compile t.vrr in
    { D.fstep = Vrr.fast_step f; D.fprime = Vrr.fast_prime f }
end

module Bvr_router = struct
  module Bvr = Disco_baselines.Bvr

  type t = Bvr.t

  let name = "bvr"
  let flat_names = "lookup at beacons"

  let build (tb : Testbed.t) =
    Bvr.build ~rng:(Testbed.rng tb ~purpose:bvr_purpose) tb.Testbed.graph

  let ttl_factor = Bvr.ttl_factor

  (* BVR packets always carry the destination's coordinate (looked up at
     the beacons); greedy forwarding does not change after a handshake. *)
  let first_header t ~tel:_ ~src ~dst = Bvr.packet_header t ~src ~dst
  let later_header = first_header
  let oracle_first t ~tel:_ ~src ~dst = Bvr.route t ~src ~dst
  let oracle_later = oracle_first
  let state_entries t v = Bvr.state_entries t v
  let state_bytes t v = Bvr.state_bytes t v
  let fork t = t

  let compile t =
    let f = Bvr.compile t in
    { D.fstep = Bvr.fast_step f; D.fprime = Bvr.fast_prime f }
end

module Seattle_router = struct
  module Seattle = Disco_baselines.Seattle

  type t = Seattle.t

  let name = "seattle"
  let flat_names = "lookup detour"

  let build (tb : Testbed.t) =
    Seattle.build tb.Testbed.graph ~names:(Testbed.nd tb).Core.Nddisco.names

  let ttl_factor = Seattle.ttl_factor
  let first_header t ~tel:_ ~src ~dst = Seattle.first_header t ~src ~dst
  let later_header t ~tel:_ ~src ~dst = Seattle.later_header t ~src ~dst
  let oracle_first t ~tel:_ ~src ~dst = Some (Seattle.route_first t ~src ~dst)
  let oracle_later t ~tel:_ ~src ~dst = Some (Seattle.route_later t ~src ~dst)
  let state_entries t v = Seattle.state_entries t v
  let state_bytes t v = Seattle.state_bytes t v
  let fork t = t

  let compile t =
    let f = Seattle.compile t in
    { D.fstep = Seattle.fast_step f; D.fprime = Seattle.fast_prime f }
end

module Tz_router = struct
  module Tz = Disco_baselines.Tz_hierarchy

  type t = Tz.t

  let name = "tz"
  let flat_names = "no (hierarchy labels)"

  (* The hierarchy depth follows the topology size: k = 2 is the paper's
     Disco/S4 regime at evaluation scale, but holding k fixed while n
     grows forfeits TZ's O~(n^{1/k}) state — million-node sweeps climb to
     k = 4 as the tradeoff curve dictates. *)
  let k_for n = if n <= 16_384 then 2 else if n <= 262_144 then 3 else 4

  let build (tb : Testbed.t) =
    Tz.build
      ~rng:(Testbed.rng tb ~purpose:tz_purpose)
      ~k:(k_for (Graph.n tb.Testbed.graph))
      tb.Testbed.graph

  let ttl_factor = Tz.ttl_factor
  let first_header t ~tel:_ ~src ~dst = Tz.packet_header t ~src ~dst
  let later_header = first_header
  let oracle_first t ~tel:_ ~src ~dst = Tz.route t ~src ~dst
  let oracle_later = oracle_first
  let state_entries t v = Tz.state t v
  let state_bytes t v = Tz.state_bytes t v
  let fork t = t

  let compile t =
    let f = Tz.compile t in
    { D.fstep = Tz.fast_step f; D.fprime = Tz.fast_prime f }
end

module Pathvector_router = struct
  (* Converged path vector holds a shortest path to every destination, so
     routing is a shortest-path oracle; one SSSP is cached per source
     because the engine samples destinations grouped by source. *)
  type t = {
    graph : Graph.t;
    ws : Dijkstra.workspace;
    mutable cached_src : int;
    mutable sp : Dijkstra.sssp option;
  }

  let name = "pathvector"
  let flat_names = "no"

  let build (tb : Testbed.t) =
    {
      graph = tb.Testbed.graph;
      ws = Dijkstra.make_workspace tb.Testbed.graph;
      cached_src = -1;
      sp = None;
    }

  let sssp t ~tel src =
    match t.sp with
    | Some sp when t.cached_src = src -> sp
    | _ ->
        Telemetry.sssp_run tel;
        let sp = Dijkstra.sssp ~ws:t.ws t.graph src in
        t.cached_src <- src;
        t.sp <- Some sp;
        sp

  let ttl_factor = 4

  (* The source's FIB supplies the whole explicit route; the data plane is
     pure label consumption. An unreachable destination leaves the label
     list empty and the walker drops at the source, matching the oracle's
     [None]. *)
  let first_header t ~tel ~src ~dst =
    let sp = sssp t ~tel src in
    if src = dst || sp.Dijkstra.dist.(dst) = infinity then D.plain ~dst D.Carry
    else
      match
        Dijkstra.path_of_parents
          ~parent:(fun u -> sp.Dijkstra.parent.(u))
          ~src ~dst
      with
      | _ :: rest -> { (D.plain ~dst D.Carry) with D.labels = rest }
      | [] -> D.plain ~dst D.Carry

  let later_header = first_header

  let oracle_first t ~tel ~src ~dst =
    let sp = sssp t ~tel src in
    if sp.Dijkstra.dist.(dst) = infinity then None
    else
      Some
        (Dijkstra.path_of_parents
           ~parent:(fun u -> sp.Dijkstra.parent.(u))
           ~src ~dst)

  let oracle_later = oracle_first
  let state_entries t _ = Graph.n t.graph - 1

  (* A converged path-vector FIB holds (next hop, distance) per
     destination; the advertised paths themselves are control-plane
     state. *)
  let state_bytes t _ = float_of_int (16 * (Graph.n t.graph - 1))

  (* The SSSP memo and the Dijkstra workspace are query-time mutable state:
     a fork gets fresh ones so two domains never share them. *)
  let fork t =
    {
      t with
      ws = Dijkstra.make_workspace t.graph;
      cached_src = -1;
      sp = None;
    }

  (* The whole route travels as labels, so the compiled forward is the
     pure label-consumption machine; nothing is lazily built per flow
     (headers come from the source's SSSP memo at setup time). *)
  let fast_step (_ : t) (pkt : D.packet) u =
    if u = pkt.D.pdst then D.fast_deliver
    else if pkt.D.pmode <> D.mode_carry then D.fast_protocol
    else if D.route_len pkt > 0 then D.route_next pkt
    else D.fast_no_route

  let compile t = { D.fstep = fast_step t; D.fprime = (fun ~src:_ ~dst:_ -> ()) }
end

let () =
  List.iter Protocol.register
    [
      (module Pathvector_router : Protocol.ROUTER);
      (module Seattle_router);
      (module Bvr_router);
      (module Vrr_router);
      (module S4_router);
      (module Nddisco_router);
      (module Disco_router);
      (module Tz_router);
    ]

(* Going through these accessors (rather than Protocol's) guarantees the
   registrations above have run, whatever the link order. *)
let all () = Protocol.all ()
let names () = Protocol.names ()
let find = Protocol.find
let find_exn = Protocol.find_exn
