module Hash_space = Disco_hash.Hash_space
module Consistent_hash = Disco_hash.Consistent_hash

type t = {
  nd : Nddisco.t;
  ring : Consistent_hash.t;
  sorted : Packed.Kv64.t; (* every node keyed by name hash *)
  mutable fib : Packed.Othello.t option; (* name hash -> owner landmark *)
  mutable owner_cache : int array option;
}

let build (nd : Nddisco.t) =
  let ring =
    Consistent_hash.create
      ~replicas:nd.params.resolution_replicas
      ~owners:nd.landmarks.ids
      ~owner_name:(fun lm -> nd.names.(lm))
      ()
  in
  let sorted = Packed.Kv64.of_pairs (Array.mapi (fun v h -> (h, v)) nd.hashes) in
  { nd; ring; sorted; fib = None; owner_cache = None }

let owner t name = Consistent_hash.owner_of_name t.ring name

let owners_by_node t =
  match t.owner_cache with
  | Some a -> a
  | None ->
      let a = Array.map (fun h -> Consistent_hash.owner_of t.ring h) t.nd.hashes in
      t.owner_cache <- Some a;
      a

(* The succinct owner table: an Othello map from name-hash halves to the
   owning landmark, a few bits per name instead of an 8-byte array slot.
   Values reproduce [owners_by_node] exactly (they are built from it), so
   the compiled data plane and the route oracles stay bit-identical. *)
let fib t =
  match t.fib with
  | Some f -> f
  | None ->
      let owners = owners_by_node t in
      let n = Array.length t.nd.hashes in
      let hi = Array.make n 0 and lo = Array.make n 0 in
      Array.iteri
        (fun v h ->
          let h32, l32 = Packed.split64 h in
          hi.(v) <- h32;
          lo.(v) <- l32)
        t.nd.hashes;
      let f = Packed.Othello.build ~hi ~lo ~values:owners in
      t.fib <- Some f;
      f

let entries_per_landmark t =
  Consistent_hash.load_counts t.ring ~keys:t.nd.hashes

let entries_at t v =
  if not t.nd.landmarks.is_landmark.(v) then 0
  else begin
    let owners = owners_by_node t in
    let count = ref 0 in
    Array.iter (fun o -> if o = v then incr count) owners;
    !count
  end

let resolve_then_route ?(heuristic = Shortcut.No_path_knowledge) t ~src ~dst =
  let nd = t.nd in
  if src = dst then [ src ]
  else begin
    let raw from_node to_node =
      let lm_owner = owner t nd.names.(to_node) in
      if lm_owner = from_node || nd.landmarks.is_landmark.(to_node) then
        Nddisco.raw_route nd ~src:from_node ~dst:to_node
      else begin
        match Vicinity.path nd.vicinity from_node to_node with
        | Some p -> p (* destination nearby: no resolution trip needed *)
        | None ->
            let to_owner =
              Landmark_trees.path_to nd.trees from_node ~lm:lm_owner
            in
            let onward = Nddisco.raw_route nd ~src:lm_owner ~dst:to_node in
            to_owner @ List.tl onward
      end
    in
    let fwd = raw src dst in
    let rev =
      if Shortcut.uses_reverse heuristic then Some (raw dst src) else None
    in
    Shortcut.apply ~graph:nd.graph ~knows:(Nddisco.knows nd) heuristic ~fwd ~rev
  end

let find_closest_hash t key =
  let arr = t.sorted in
  let n = Packed.Kv64.length arr in
  (* Successor index by binary search, then compare with predecessor by
     circular distance. *)
  let r = Packed.Kv64.rank_geq arr key in
  let succ_idx = if r = n then 0 else r in
  let pred_idx = (succ_idx + n - 1) mod n in
  let d_succ = Hash_space.ring_distance key (Packed.Kv64.key arr succ_idx) in
  let d_pred = Hash_space.ring_distance key (Packed.Kv64.key arr pred_idx) in
  if Hash_space.compare_unsigned d_pred d_succ < 0 then Packed.Kv64.value arr pred_idx
  else Packed.Kv64.value arr succ_idx

let ring_byte_size t = Consistent_hash.byte_size t.ring

let byte_size t =
  Consistent_hash.byte_size t.ring
  + Packed.Kv64.byte_size t.sorted
  + match t.fib with Some f -> Packed.Othello.byte_size f | None -> 0
