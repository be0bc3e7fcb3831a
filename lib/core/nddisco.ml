module Graph = Disco_graph.Graph

(* All n addresses in four flat slabs instead of n boxed records: the
   landmark column, the explicit routes as one CSR, and the per-hop
   forwarding labels as one bytes blob with byte offsets and exact bit
   lengths. The compiled data plane walks [aroute] in place; the oracles
   and headers rehydrate an [Address.t] on demand. *)
type addresses = {
  alm : int array;
  aroute : Packed.Csr.t;
  albl_off : int array;
  albl_bits : int array;
  albl : Bytes.t;
}

type t = {
  graph : Graph.t;
  params : Params.t;
  names : Name.t array;
  hashes : Disco_hash.Hash_space.id array;
  landmarks : Landmarks.t;
  vicinity : Vicinity.t;
  trees : Landmark_trees.t;
  addresses : addresses;
}

let build ?(params = Params.default) ?names ?landmark_ids ?(guarantee_coverage = false)
    ~rng graph =
  let n = Graph.n graph in
  let names = match names with Some a -> a | None -> Name.default_array n in
  if Array.length names <> n then invalid_arg "Nddisco.build: names size";
  let landmarks =
    match landmark_ids with
    | Some ids -> Landmarks.of_ids graph ids
    | None -> Landmarks.build ~rng ~params graph
  in
  let k = Params.vicinity_size params ~n in
  let landmarks =
    if guarantee_coverage then fst (Landmarks.ensure_coverage graph ~k landmarks)
    else landmarks
  in
  let vicinity = Vicinity.create graph ~k in
  let trees = Landmark_trees.create graph in
  let addresses =
    let alm = Array.make n 0 in
    let roff = Array.make (n + 1) 0 in
    let rdata = Packed.Grow.create ~capacity:(4 * n) () in
    let albl_off = Array.make (n + 1) 0 in
    let albl_bits = Array.make n 0 in
    let lbl = Buffer.create (2 * n) in
    for v = 0 to n - 1 do
      let a = Address.make graph ~route:(Landmarks.address_route landmarks v) in
      alm.(v) <- a.Address.landmark;
      Array.iter (Packed.Grow.push rdata) a.Address.route;
      roff.(v + 1) <- Packed.Grow.len rdata;
      Buffer.add_bytes lbl a.Address.labels;
      albl_off.(v + 1) <- Buffer.length lbl;
      albl_bits.(v) <- a.Address.label_bits
    done;
    {
      alm;
      aroute = Packed.Csr.of_parts ~off:roff ~data:(Packed.Grow.to_array rdata);
      albl_off;
      albl_bits;
      albl = Buffer.to_bytes lbl;
    }
  in
  {
    graph;
    params;
    names;
    hashes = Name.hash_array names;
    landmarks;
    vicinity;
    trees;
    addresses;
  }

let n t = Graph.n t.graph

let address t v =
  let a = t.addresses in
  Address.of_parts ~landmark:a.alm.(v)
    ~route:(Packed.Csr.sub_row a.aroute v)
    ~labels:(Bytes.sub a.albl a.albl_off.(v) (a.albl_off.(v + 1) - a.albl_off.(v)))
    ~label_bits:a.albl_bits.(v)

let address_landmark t v = t.addresses.alm.(v)

(* Route column of v's address as a list, straight off the CSR. *)
let address_route_list t v =
  let a = t.addresses in
  let acc = ref [] in
  for j = Packed.Csr.row_len a.aroute v - 1 downto 0 do
    acc := Packed.Csr.get a.aroute v j :: !acc
  done;
  !acc

let knows t u x =
  if u = x then Some [ u ]
  else if t.landmarks.is_landmark.(x) then
    Some (Landmark_trees.path_to t.trees u ~lm:x)
  else Vicinity.path t.vicinity u x

let raw_route t ~src ~dst =
  if src = dst then [ src ]
  else if t.landmarks.is_landmark.(dst) then
    Landmark_trees.path_to t.trees src ~lm:dst
  else begin
    match Vicinity.path t.vicinity src dst with
    | Some p -> p
    | None ->
        let lm = address_landmark t dst in
        let to_landmark = Landmark_trees.path_to t.trees src ~lm in
        let from_landmark = address_route_list t dst in
        (* Both segments contain the landmark; drop one copy. *)
        to_landmark @ List.tl from_landmark
  end

let shortcut_route t heuristic ~src ~dst =
  let fwd = raw_route t ~src ~dst in
  match fwd with
  | [ _ ] | [ _; _ ] -> fwd (* nothing to shorten *)
  | _ ->
      let rev =
        if Shortcut.uses_reverse heuristic then Some (raw_route t ~src:dst ~dst:src)
        else None
      in
      Shortcut.apply ~graph:t.graph ~knows:(knows t) heuristic ~fwd ~rev

let route_first ?(heuristic = Shortcut.No_path_knowledge) t ~src ~dst =
  shortcut_route t heuristic ~src ~dst

let route_later ?(heuristic = Shortcut.No_path_knowledge) t ~src ~dst =
  (* Handshake: if src is in V(dst), dst reveals the exact shortest path
     (the reverse of its vicinity path to src). *)
  match Vicinity.path t.vicinity dst src with
  | Some p when src <> dst -> List.rev p
  | _ -> shortcut_route t heuristic ~src ~dst

(* Exact in-memory cost of v's slice of the packed address slabs: landmark
   and bit-length columns, the two offset columns, the route row, and the
   label bytes. *)
let address_slab_bytes t v =
  let a = t.addresses in
  32 + (8 * Packed.Csr.row_len a.aroute v) + (a.albl_off.(v + 1) - a.albl_off.(v))

(* Exact per-node state from the packed slabs: the vicinity view arrays,
   one (parent, dist) slot in every landmark tree, and the node's own
   address. The Õ(√n) quantity the scaling sweep fits. *)
let packed_state_bytes t v =
  let lms = Landmarks.count t.landmarks in
  float_of_int
    (Vicinity.view_bytes (Vicinity.view t.vicinity v)
    + (16 * lms)
    + address_slab_bytes t v)

type state_detail = {
  vicinity_entries : int;
  landmark_entries : int;
  label_mappings : int;
  resolution_entries : int;
}

let state_entries ?(resolution_entries = 0) t v =
  let vicinity_entries = Vicinity.k t.vicinity in
  let landmark_entries = Landmarks.count t.landmarks in
  (* Forwarding-label mappings: one per neighbor that actually carries a
     shortest path toward a landmark or vicinity member (Theorem 2). We
     bound it by degree and by the routes available. *)
  let label_mappings =
    min (Graph.degree t.graph v) (vicinity_entries + landmark_entries)
  in
  { vicinity_entries; landmark_entries; label_mappings; resolution_entries }

let total_entries d =
  d.vicinity_entries + d.landmark_entries + d.label_mappings + d.resolution_entries
