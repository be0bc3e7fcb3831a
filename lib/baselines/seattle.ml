module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Consistent_hash = Disco_hash.Consistent_hash
module Packed = Disco_core.Packed

type t = {
  graph : Graph.t;
  names : Disco_core.Name.t array;
  ring : Consistent_hash.t;
  resolver : int array; (* per destination *)
  directory : Packed.Csr.t;
      (* the resolver map inverted: row v = the destinations whose
         directory entry v stores, sorted ascending *)
  trees : (int, Dijkstra.sssp) Disco_util.Pool.Memo.t;
}

(* Invert [resolver] into a CSR by counting sort: row v lists v's
   directory share, and per-node state queries read a row length instead
   of rescanning all n resolver slots. *)
let invert_resolver n resolver =
  let off = Array.make (n + 1) 0 in
  Array.iter (fun r -> off.(r + 1) <- off.(r + 1) + 1) resolver;
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + off.(i + 1)
  done;
  let data = Array.make n 0 in
  let cursor = Array.sub off 0 n in
  Array.iteri
    (fun d r ->
      data.(cursor.(r)) <- d;
      cursor.(r) <- cursor.(r) + 1)
    resolver;
  Packed.Csr.of_parts ~off ~data

let build graph ~names =
  let n = Graph.n graph in
  if Array.length names <> n then invalid_arg "Seattle.build: names size";
  let ring =
    Consistent_hash.create
      ~owners:(Array.init n Fun.id)
      ~owner_name:(fun v -> names.(v))
      ()
  in
  let resolver = Array.map (fun name -> Consistent_hash.owner_of_name ring name) names in
  {
    graph;
    names;
    ring;
    resolver;
    directory = invert_resolver n resolver;
    trees = Disco_util.Pool.Memo.create ();
  }

(* Lazy per-root SSSP, shared across query handles; the memo makes the
   fill safe from pool tasks, and each fill uses its own workspace
   ([Dijkstra.sssp] returns fresh arrays, so cached trees are
   workspace-independent). *)
let tree t root =
  Disco_util.Pool.Memo.find_or_add t.trees root (fun () ->
      Dijkstra.sssp ~ws:(Dijkstra.make_workspace t.graph) t.graph root)

let shortest t ~src ~dst =
  let s = tree t src in
  Dijkstra.path_of_parents ~parent:(fun u -> s.Dijkstra.parent.(u)) ~src ~dst

let resolver_of t dst = t.resolver.(dst)

let route_later t ~src ~dst = if src = dst then [ src ] else shortest t ~src ~dst

let route_first t ~src ~dst =
  if src = dst then [ src ]
  else begin
    let r = t.resolver.(dst) in
    if r = src || r = dst then route_later t ~src ~dst
    else shortest t ~src ~dst:r @ List.tl (shortest t ~src:r ~dst)
  end

let state_entries t v = Graph.n t.graph - 1 + Packed.Csr.row_len t.directory v

let state_bytes t v =
  (* One word per link-state route, plus a (name hash, location) pair per
     directory-share entry. *)
  float_of_int ((8 * (Graph.n t.graph - 1)) + (16 * Packed.Csr.row_len t.directory v))

module D = Disco_core.Dataplane

let ttl_factor = 4

(* --- compiled forward -----------------------------------------------------

   SEATTLE's data plane has no shortcutting: packets follow the exact
   label route the source's link-state table produced (so walks equal the
   oracle node for node). A first packet steers to the resolver, which
   looks the destination up in its directory share and writes the onward
   route from its own table. While steering, the packet is addressed to
   the resolver — a node it rides through does not inspect the inner
   destination, so it only delivers in Carry (matching the oracle, whose
   resolver detour may pass through the destination).  Link-state trees
   are parent arrays indexed by root ([ftrees], primed per flow), and the
   hop body is array indexing only. *)

type fast = {
  fsea : t;
  ftrees : int array array; (* SSSP parent array per root; [||] = unprimed *)
}

let compile t = { fsea = t; ftrees = Array.make (Graph.n t.graph) [||] }

let fast_prime_root f root =
  if Array.length f.ftrees.(root) = 0 then
    f.ftrees.(root) <- (tree f.fsea root).Dijkstra.parent

(* Force the trees the flow's decisions read: the source's (header
   encode) and the resolver's (the steer-leg rewrite). *)
let fast_prime f ~src ~dst =
  fast_prime_root f src;
  fast_prime_root f f.fsea.resolver.(dst)

let fast_step f (pkt : D.packet) u =
  let m = pkt.D.pmode in
  if m = D.mode_carry then
    if u = pkt.D.pdst then D.fast_deliver
    else if D.route_len pkt > 0 then D.route_next pkt
    else D.fast_no_route
  else if m = D.mode_steer || m = D.mode_steer_tried then
    if D.route_len pkt > 0 then D.route_next pkt
    else
      (* At the resolver: write the onward route from its own tree. *)
      let parents = f.ftrees.(u) in
      if Array.length parents = 0 then D.fast_protocol
      else
        let cnt = D.route_fill_down pkt parents u pkt.D.pdst in
        if cnt >= 1 then begin
          pkt.D.pmode <- D.mode_carry;
          pkt.D.pway <- -1;
          D.route_next pkt
        end
        else D.fast_no_route
  else D.fast_protocol

let carry_header ~dst path =
  match path with
  | _ :: rest -> { (D.plain ~dst D.Carry) with D.labels = rest }
  | [] -> D.plain ~dst D.Carry

let later_header t ~src ~dst =
  if src = dst then D.plain ~dst D.Carry
  else carry_header ~dst (shortest t ~src ~dst)

let first_header t ~src ~dst =
  if src = dst then D.plain ~dst D.Carry
  else begin
    let r = t.resolver.(dst) in
    if r = src || r = dst then later_header t ~src ~dst
    else
      match shortest t ~src ~dst:r with
      | _ :: rest ->
          {
            (D.plain ~dst (D.Steer { tried_proxy = false })) with
            D.labels = rest;
            waypoint = r;
          }
      | [] -> later_header t ~src ~dst
  end
