module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Heap = Disco_util.Heap
module Rng = Disco_util.Rng
module Packed = Disco_core.Packed

type t = {
  graph : Graph.t;
  k : int;
  level : int array; (* highest level each node belongs to *)
  pivot : int array array; (* pivot.(i).(v) = p_i(v); -1 if unreachable *)
  pivot_dist : float array array; (* d(v, A_i) *)
  bunch : Packed.Csr.t; (* per node: sorted bunch member ids *)
  bunch_d : Packed.Fslab.t; (* parallel to [bunch.data]: d(v, w) *)
  trees : (int, Dijkstra.sssp) Disco_util.Pool.Memo.t;
      (* lazy per-pivot SSSP shared by route and forward *)
}

let k t = t.k

let level_sizes t =
  let sizes = Array.make t.k 0 in
  Array.iter
    (fun l ->
      for i = 0 to l do
        sizes.(i) <- sizes.(i) + 1
      done)
    t.level;
  sizes

(* Bunch contributions of one sampled node [w] at level [i]: every node u
   with d(w, u) < d(u, A_{i+1}) learns a route to w (strict inequality,
   as in TZ). A pruned Dijkstra from w: a node only propagates the search
   if it satisfies the condition itself. [next_dist i u] is d(u, A_{i+1})
   with the sentinel d(u, A_k) = infinity; [staging] holds the mutable
   per-node bunches until {!build} freezes them into the CSR. *)
let scatter ~graph:g ~next_dist ~staging ~w ~i =
  let dist = Hashtbl.create 64 in
  let heap = Heap.create () in
  Heap.push heap 0.0 w;
  Hashtbl.replace dist w 0.0;
  let settled = Hashtbl.create 64 in
  let continue = ref true in
  while !continue do
    match Heap.pop heap with
    | None -> continue := false
    | Some (d, u) ->
        if not (Hashtbl.mem settled u) then begin
          Hashtbl.replace settled u ();
          if d < next_dist i u then begin
            if u <> w then Hashtbl.replace staging.(u) w d;
            Graph.iter_neighbors g u (fun v wgt ->
                let nd = d +. wgt in
                match Hashtbl.find_opt dist v with
                | Some old when old <= nd -> ()
                | _ ->
                    Hashtbl.replace dist v nd;
                    Heap.push heap nd v)
          end
        end
  done

let build ~rng ~k graph =
  if k < 1 then invalid_arg "Tz_hierarchy.build: k >= 1";
  let n = Graph.n graph in
  let level = Array.make n 0 in
  let q = float_of_int n ** (-1.0 /. float_of_int k) in
  for v = 0 to n - 1 do
    let rec climb i =
      if i < k - 1 && Rng.bernoulli rng q then climb (i + 1) else i
    in
    level.(v) <- climb 0
  done;
  (* The top level must be nonempty or top-level pivots (and the stretch
     guarantee) disappear. *)
  if not (Array.exists (fun l -> l = k - 1) level) then
    level.(Rng.int rng n) <- k - 1;
  let members i =
    Array.of_list
      (List.filter (fun v -> level.(v) >= i) (List.init n Fun.id))
  in
  let pivot = Array.make k [||] and pivot_dist = Array.make k [||] in
  for i = 0 to k - 1 do
    let multi = Dijkstra.multi_source graph (members i) in
    pivot.(i) <- multi.Dijkstra.msource;
    pivot_dist.(i) <- multi.Dijkstra.mdist
  done;
  let staging = Array.init n (fun _ -> Hashtbl.create 16) in
  let next_dist i v =
    if i + 1 >= k then infinity else pivot_dist.(i + 1).(v)
  in
  for w = 0 to n - 1 do
    (* w contributes at each level it belongs to. *)
    for i = 0 to level.(w) do
      scatter ~graph ~next_dist ~staging ~w ~i
    done
  done;
  (* Freeze the staged bunches into flat slabs: id-sorted CSR rows with a
     parallel distance slab, binary-searched from here on. *)
  let bunch =
    Packed.Csr.of_fn ~n
      ~row_len:(fun v -> Hashtbl.length staging.(v))
      ~fill:(fun v data off ->
        let j = ref off in
        Hashtbl.iter
          (fun w _ ->
            data.(!j) <- w;
            incr j)
          staging.(v);
        let row = Array.sub data off (!j - off) in
        Array.sort Int.compare row;
        Array.blit row 0 data off (Array.length row))
  in
  let bunch_d = Packed.Fslab.create (Packed.Csr.total bunch) ~init:infinity in
  for v = 0 to n - 1 do
    let off = Packed.Csr.row_off bunch v in
    for j = 0 to Packed.Csr.row_len bunch v - 1 do
      let w = Packed.Csr.get bunch v j in
      Packed.Fslab.set bunch_d (off + j) (Hashtbl.find staging.(v) w)
    done
  done;
  { graph; k; level; pivot; pivot_dist; bunch; bunch_d;
    trees = Disco_util.Pool.Memo.create () }

let state t v = Packed.Csr.row_len t.bunch v + t.k

(* Exact bytes of v's slice of the packed tables: its bunch row (8-byte id
   + 8-byte distance per entry) plus a (pivot, distance) pair per level. *)
let state_bytes t v =
  float_of_int ((16 * Packed.Csr.row_len t.bunch v) + (16 * t.k))

let in_bunch t ~node ~target =
  node = target || Packed.Csr.find_sorted t.bunch node target >= 0

(* The TZ query: climb levels, alternating sides, until the current pivot
   of one endpoint lies in the other's bunch; route via that pivot. *)
let route_length t ~src ~dst =
  if src = dst then 0.0
  else begin
    let rec climb i x y w =
      if in_bunch t ~node:y ~target:w then begin
        let d_xw = if w = x then 0.0 else t.pivot_dist.(i).(x) in
        let d_yw =
          if w = y then 0.0
          else
            Packed.Fslab.get t.bunch_d
              (Packed.Csr.row_off t.bunch y + Packed.Csr.find_sorted t.bunch y w)
        in
        d_xw +. d_yw
      end
      else begin
        let i = i + 1 in
        if i >= t.k then infinity (* disconnected *)
        else begin
          let x, y = (y, x) in
          climb i x y t.pivot.(i).(x)
        end
      end
    in
    climb 0 src dst src
  end

let stretch_bound t = float_of_int ((2 * t.k) - 1)

(* The same climb as {!route_length}, stopping at the pivot the packet
   routes through. *)
let routing_pivot t ~src ~dst =
  let rec climb i x y w =
    if in_bunch t ~node:y ~target:w then Some w
    else begin
      let i = i + 1 in
      if i >= t.k then None
      else begin
        let x, y = (y, x) in
        climb i x y t.pivot.(i).(x)
      end
    end
  in
  climb 0 src dst src

(* Lazy per-pivot SSSP: the memo makes fills safe from pool tasks, and
   each fill uses its own workspace (the returned arrays are fresh, so
   cached trees are workspace-independent). *)
let tree t w =
  Disco_util.Pool.Memo.find_or_add t.trees w (fun () ->
      Dijkstra.sssp ~ws:(Dijkstra.make_workspace t.graph) t.graph w)

let route t ~src ~dst =
  if src = dst then Some [ src ]
  else
    match routing_pivot t ~src ~dst with
    | None -> None
    | Some w ->
        (* Both legs of [src ~> w ~> dst] are shortest paths, so one run
           rooted at the pivot reconstructs the whole route. *)
        let sp = tree t w in
        if sp.Dijkstra.dist.(src) = infinity || sp.Dijkstra.dist.(dst) = infinity
        then None
        else begin
          let from_pivot z =
            Dijkstra.path_of_parents
              ~parent:(fun u -> sp.Dijkstra.parent.(u))
              ~src:w ~dst:z
          in
          match from_pivot dst with
          | [] -> None
          | _ :: tail -> Some (List.rev (from_pivot src) @ tail)
        end

module D = Disco_core.Dataplane

let ttl_factor = 4

let packet_header t ~src ~dst =
  if src = dst then D.plain ~dst D.Carry
  else begin
    let w = match routing_pivot t ~src ~dst with Some w -> w | None -> -1 in
    { (D.plain ~dst (D.Steer { tried_proxy = false })) with D.waypoint = w }
  end

(* --- compiled forward -----------------------------------------------------

   Per-hop TZ forwarding: the header carries the routing pivot found by
   the source's climb; nodes forward up the pivot's shortest-path tree
   (Steer with no labels — each hop is one parent-array load), and the
   pivot itself writes the explicit descent to the destination
   ({!Dataplane.route_fill_down}). While climbing, the packet is
   addressed to the pivot, so a node it rides through does not deliver
   even if it is the destination (the oracle's route may cross the
   destination on the way up); only the pivot itself and the Carry
   descent deliver. Walks equal [route] node for node.  The carried
   pivot's SSSP becomes a parent array ([ftrees], primed per flow). *)

type fast = {
  ftz : t;
  ftrees : int array array; (* SSSP parent array per pivot; [||] = unprimed *)
}

let compile t = { ftz = t; ftrees = Array.make (Graph.n t.graph) [||] }

let fast_prime_root f w =
  if Array.length f.ftrees.(w) = 0 then
    f.ftrees.(w) <- (tree f.ftz w).Dijkstra.parent

let fast_prime f ~src ~dst =
  match routing_pivot f.ftz ~src ~dst with
  | Some w -> fast_prime_root f w
  | None -> ()

let fast_step f (pkt : D.packet) u =
  let m = pkt.D.pmode in
  if m = D.mode_steer || m = D.mode_steer_tried then begin
    let w = pkt.D.pway in
    if w < 0 then D.fast_no_route (* no common pivot: disconnected *)
    else
      let parents = f.ftrees.(w) in
      if Array.length parents = 0 then D.fast_protocol
      else if u = w then
        if u = pkt.D.pdst then D.fast_deliver
        else
          let cnt = D.route_fill_down pkt parents w pkt.D.pdst in
          if cnt >= 1 then begin
            pkt.D.pmode <- D.mode_carry;
            pkt.D.pway <- -1;
            D.route_next pkt
          end
          else D.fast_no_route
      else
        let p = parents.(u) in
        if p < 0 then D.fast_no_route else p
  end
  else if m = D.mode_carry then
    if u = pkt.D.pdst then D.fast_deliver
    else if D.route_len pkt > 0 then D.route_next pkt
    else D.fast_no_route
  else D.fast_protocol
