module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Packed = Disco_core.Packed

type t = {
  graph : Graph.t;
  beacons : int array;
  dist : Packed.Fslab.t;
      (* count x n beacon-to-node distances, one float64 slab: row b at
         [b * n .. b * n + n - 1] *)
  parent : int array; (* beacon shortest-path trees, same layout *)
  routing_beacons : int;
}

(* Beacon sets scale as ~sqrt(n log n) (the landmark rate) but are capped:
   the distance slab is count x n, and past a few hundred beacons the
   coordinate no longer gains routing power while the slab dominates
   memory at million-node scale. *)
let max_default_beacons = 128

let build ?beacons ?(routing_beacons = 10) ~rng graph =
  let n = Graph.n graph in
  let count =
    match beacons with
    | Some b -> max 1 (min b n)
    | None ->
        let f = float_of_int n in
        min max_default_beacons
          (max 1 (int_of_float (ceil (sqrt (f *. (log f /. log 2.0))))))
  in
  let beacons = Rng.sample_without_replacement rng count n in
  Array.sort Int.compare beacons;
  let dist = Packed.Fslab.create (count * n) ~init:infinity in
  let parent = Array.make (count * n) (-1) in
  let ws = Dijkstra.make_workspace graph in
  Array.iteri
    (fun b beacon ->
      let run = Dijkstra.sssp ~ws graph beacon in
      let base = b * n in
      for v = 0 to n - 1 do
        Packed.Fslab.set dist (base + v) run.Dijkstra.dist.(v);
        parent.(base + v) <- run.Dijkstra.parent.(v)
      done)
    beacons;
  { graph; beacons; dist; parent; routing_beacons = min routing_beacons count }

let beacon_count t = Array.length t.beacons

(* [Bigarray.Array1.get] on the concretely-typed slab compiles to an
   inline unboxed load; the cross-module [Fslab.get] wrapper boxes the
   float on every read, which would put an allocation in every per-hop
   delta fold of [route]. *)
let bdist t b v = Bigarray.Array1.get t.dist ((b * Graph.n t.graph) + v)

let coordinate t v =
  Array.init (Array.length t.beacons) (fun b -> bdist t b v)

let state_entries t v =
  ignore v;
  2 * Array.length t.beacons

let state_bytes t v =
  ignore v;
  (* The node's slab columns: its coordinate (8 bytes per beacon distance)
     and its beacon next hops (one word each). *)
  float_of_int (16 * Array.length t.beacons)

(* The destination's [routing_beacons] closest beacons (indexes into
   t.beacons), per the BVR paper's C_k(d). *)
let closest_beacons t dst =
  let dist = t.dist in
  let n = Graph.n t.graph in
  let idx = Array.init (Array.length t.beacons) Fun.id in
  Array.sort
    (fun a b ->
      Float.compare
        (Bigarray.Array1.get dist ((a * n) + dst))
        (Bigarray.Array1.get dist ((b * n) + dst)))
    idx;
  Array.sub idx 0 t.routing_beacons

(* BVR's asymmetric distance: delta = 10 * (sum of overshoot toward the
   beacons the destination is close to) + undershoot. *)
let delta t ~components ~node ~dst =
  let dist = t.dist in
  let n = Graph.n t.graph in
  let acc = ref 0.0 in
  for i = 0 to Array.length components - 1 do
    let b = components.(i) in
    let p = Bigarray.Array1.get dist ((b * n) + node)
    and d = Bigarray.Array1.get dist ((b * n) + dst) in
    acc := !acc +. (10.0 *. Float.max 0.0 (p -. d)) +. Float.max 0.0 (d -. p)
  done;
  !acc

type mode = Greedy | Fallback of float
(* BVR's fallback discipline: once stuck, ride the closest beacon's tree
   and return to greedy only on strict improvement over the distance at
   which fallback was entered — otherwise greedy would re-descend into the
   same local minimum. *)

let best_neighbor t ~components u ~dst =
  let best = ref None and best_d = ref infinity in
  Graph.iter_neighbors t.graph u (fun v _ ->
      let d = delta t ~components ~node:v ~dst in
      if d < !best_d -. 1e-12 then begin
        best := Some (v, d);
        best_d := d
      end);
  !best

let route t ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let n = Graph.n t.graph in
    let components = closest_beacons t dst in
    let b = components.(0) in
    let beacon = t.beacons.(b) in
    let best_neighbor u = best_neighbor t ~components u ~dst in
    let rec step u acc ttl mode =
      if u = dst then Some (List.rev (u :: acc))
      else if ttl = 0 then None
      else begin
        let here = delta t ~components ~node:u ~dst in
        match (mode, best_neighbor u) with
        | Greedy, Some (v, d) when d < here -. 1e-12 ->
            step v (u :: acc) (ttl - 1) Greedy
        | Greedy, _ ->
            if u = beacon then None (* stuck at the beacon: BVR would flood *)
            else step u acc ttl (Fallback here)
        | Fallback bound, Some (v, d) when d < bound -. 1e-12 ->
            step v (u :: acc) (ttl - 1) Greedy
        | Fallback _, _ -> (
            if u = beacon then None
            else
              match t.parent.((b * n) + u) with
              | -1 -> None
              | p -> step p (u :: acc) (ttl - 1) mode)
      end
    in
    step src [] (4 * n) Greedy
  end

module D = Disco_core.Dataplane

let ttl_factor = 4

let packet_header t ~src:_ ~dst =
  { (D.plain ~dst D.Greedy) with D.extra_bytes = 4 * t.routing_beacons }

(* --- compiled forward -----------------------------------------------------

   Per-hop BVR forwarding from the carried coordinate, for
   {!Dataplane.fast_walk}.  The packet carries only the mode (greedy or
   fallback) and the fallback re-entry bound; everything else — the
   destination's closest beacons, the asymmetric delta — is recomputed at
   each node from the coordinate, which the header's [extra_bytes]
   account for on the wire.  Each destination's routing-beacon components
   are precomputed at compile time into one stride-[frb] int slab
   ([fcomp]), and the per-hop delta folds run over the build's distance
   slab with every intermediate float kept in the packet's [pfs] scratch —
   a flat float array — so no float ever crosses a call boundary boxed.
   Walking it reproduces [route] exactly, including the epsilon guards
   and the nan propagation of [Float.max] when a beacon reaches neither
   endpoint (disconnected graphs): [route]'s same-node Greedy -> Fallback
   switch compresses into one decision, since its re-check of the
   improving neighbor against the just-recorded bound fails by
   construction. *)

type fast = {
  fbvr : t;
  fn : int; (* row stride of the distance/parent slabs *)
  frb : int; (* routing beacons per destination *)
  fcomp : int array; (* n x frb: destination d's components at d * frb *)
}

let compile t =
  let n = Graph.n t.graph in
  let frb = t.routing_beacons in
  let fcomp = Array.make (n * frb) 0 in
  for d = 0 to n - 1 do
    let comp = closest_beacons t d in
    Array.blit comp 0 fcomp (d * frb) frb
  done;
  { fbvr = t; fn = n; frb; fcomp }

let fast_prime (_ : fast) ~src:_ ~dst:_ = ()

(* [pfs] scratch slots (slot 0 is the header's fallback bound). *)
let fs_delta = 1
let fs_here = 2
let fs_best = 3

(* [delta]'s fold, accumulating into [pfs.(slot)]: same order, same
   asymmetric weighting, same [Float.max 0.0] semantics (a nan overshoot
   stays nan, poisoning the sum exactly as [delta] does). *)
let rec fast_delta_loop f base node dst i count (pfs : float array) slot =
  if i < count then begin
    let b = f.fcomp.(base + i) in
    (* the slab type is concrete, so these access primitives compile to
       inline loads with unboxed float results — a cross-module
       [Fslab.get] call would box on every read *)
    let dist : Packed.Fslab.t = f.fbvr.dist in
    let p = Bigarray.Array1.get dist ((b * f.fn) + node) in
    let d = Bigarray.Array1.get dist ((b * f.fn) + dst) in
    let over = p -. d in
    let over =
      if over > 0.0 then over else if Float.is_nan over then over else 0.0
    in
    let under = d -. p in
    let under =
      if under > 0.0 then under else if Float.is_nan under then under else 0.0
    in
    pfs.(slot) <- pfs.(slot) +. (10.0 *. over) +. under;
    fast_delta_loop f base node dst (i + 1) count pfs slot
  end

(* [best_neighbor]'s scan: best candidate into [pis.(0)], its delta into
   [pfs.(fs_best)] (strict epsilon improvement, CSR neighbor order). *)
let rec fast_scan_loop f base u dst i deg (pkt : D.packet) =
  if i < deg then begin
    let v = Graph.neighbor_at f.fbvr.graph u i in
    pkt.D.pfs.(fs_delta) <- 0.0;
    fast_delta_loop f base v dst 0 f.frb pkt.D.pfs fs_delta;
    if pkt.D.pfs.(fs_delta) < pkt.D.pfs.(fs_best) -. 1e-12 then begin
      pkt.D.pis.(0) <- v;
      pkt.D.pfs.(fs_best) <- pkt.D.pfs.(fs_delta)
    end;
    fast_scan_loop f base u dst (i + 1) deg pkt
  end

let fast_step f (pkt : D.packet) u =
  let dst = pkt.D.pdst in
  if u = dst then D.fast_deliver
  else begin
    let m = pkt.D.pmode in
    if m <> D.mode_greedy && m <> D.mode_fallback then D.fast_protocol
    else begin
      let base = dst * f.frb in
      let b = f.fcomp.(base) in
      let beacon = f.fbvr.beacons.(b) in
      pkt.D.pis.(0) <- -1;
      pkt.D.pfs.(fs_best) <- infinity;
      fast_scan_loop f base u dst 0 (Graph.degree f.fbvr.graph u) pkt;
      pkt.D.pfs.(fs_here) <- 0.0;
      fast_delta_loop f base u dst 0 f.frb pkt.D.pfs fs_here;
      let best = pkt.D.pis.(0) in
      if
        m = D.mode_greedy && best >= 0
        && pkt.D.pfs.(fs_best) < pkt.D.pfs.(fs_here) -. 1e-12
      then best
      else if
        m = D.mode_fallback && best >= 0
        && pkt.D.pfs.(fs_best) < pkt.D.pfs.(D.fs_fbound) -. 1e-12
      then begin
        pkt.D.pmode <- D.mode_greedy;
        pkt.D.pfs.(D.fs_fbound) <- infinity;
        best
      end
      else if u = beacon then D.fast_no_route
        (* stuck at the beacon: BVR would flood *)
      else begin
        let p = f.fbvr.parent.((b * f.fn) + u) in
        if p < 0 then D.fast_no_route
        else if m = D.mode_fallback then p
        else begin
          pkt.D.pmode <- D.mode_fallback;
          pkt.D.pfs.(D.fs_fbound) <- pkt.D.pfs.(fs_here);
          p
        end
      end
    end
  end
