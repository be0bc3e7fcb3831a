module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Hash_space = Disco_hash.Hash_space
module Rng = Disco_util.Rng
module Core = Disco_core
module Packed = Core.Packed

(* Build-time staging only: converged entries are frozen into the 4-stride
   CSR below, which the route oracle scans and {!compile} indexes. *)
type entry = { ea : int; eb : int; next_a : int; next_b : int }

type t = {
  graph : Graph.t;
  r : int;
  vids : Hash_space.id array;
  ring : int array; (* ring position -> node, in (unsigned vid, id) order *)
  entries : Packed.Csr.t;
      (* per node, (ea, eb, next_a, next_b) blocks laid out in install
         order; the route oracle scans blocks backward so the newest entry
         wins, matching the prepend-order lists the build routes over *)
  final_vsets : Packed.Csr.t;
  fallbacks : int;
  ring_ok : bool; (* every final vset pair had a path set up *)
}

let pair_key x y = if x < y then (x, y) else (y, x)

module Iset = Set.Make (Int)

(* Greedy VRR forwarding, abstracted over the table representation:
   [next_toward u e] and [best_endpoint u bound] close over the tables,
   the destination, and the usability filter — the build routes over the
   staging lists, the converged oracle over the frozen CSR.

   The packet is always committed to the known endpoint whose virtual id is
   closest to the destination; it follows that endpoint's stored path hop
   by hop, and any node on the way may re-commit to a strictly closer
   endpoint. The strict-improvement rule ensures the endpoint sequence
   converges on the destination (VRR's progress argument); a TTL catches
   paths broken by the incremental join state. *)
let greedy_route_gen ~graph ~next_toward ~best_endpoint ~direct ~src ~dst =
  let n = Graph.n graph in
  (* [bound] is the virtual distance of the best endpoint ever committed;
     it only shrinks (monotone descent in id space, VRR's progress
     property), which rules out endpoint oscillation. *)
  let rec step u committed bound acc ttl =
    if u = dst then Some (List.rev (u :: acc))
    else if ttl = 0 then None
    else if direct u then Some (List.rev (dst :: u :: acc))
    else begin
      let committed =
        match committed with Some c when c = u -> None | c -> c
      in
      (* Strictly better endpoint than anything committed so far? *)
      let best, best_d = best_endpoint u bound in
      let target = match best with Some _ as b -> b | None -> committed in
      match target with
      | None -> None
      | Some e -> (
          match next_toward u e with
          | None -> None (* broken corridor *)
          | Some hop -> step hop (Some e) best_d (u :: acc) (ttl - 1))
    end
  in
  (* Int64.minus_one is 2^64 - 1 read as unsigned: no initial bound. *)
  step src None Int64.minus_one [] (8 * n)

(* r/2 successors and r/2 predecessors of [x] within [ring] (node ids
   sorted by vid). [x] may or may not be present in [ring]. *)
let ring_neighbors ~vids ~ring ~r x =
  let m = Array.length ring in
  if m = 0 then []
  else begin
    let half = max 1 (r / 2) in
    (* First index with vid >= vid(x), excluding x itself when scanning. *)
    let lo = ref 0 and hi = ref m in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Hash_space.compare_unsigned vids.(ring.(mid)) vids.(x) < 0 then
        lo := mid + 1
      else hi := mid
    done;
    let start = !lo mod m in
    let collect dir =
      let out = ref [] and i = ref start and seen = ref 0 and steps = ref 0 in
      if dir < 0 then i := (start + m - 1) mod m;
      while !seen < half && !steps < m do
        let candidate = ring.(!i) in
        if candidate <> x then begin
          out := candidate :: !out;
          incr seen
        end;
        incr steps;
        i := (!i + dir + m) mod m
      done;
      !out
    in
    List.sort_uniq Int.compare (collect 1 @ collect (-1))
  end

let bfs_join_order rng graph =
  let n = Graph.n graph in
  let start = Rng.int rng n in
  let order = Array.make n 0 and seen = Array.make n false in
  let q = Queue.create () in
  Queue.push start q;
  seen.(start) <- true;
  let idx = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order.(!idx) <- u;
    incr idx;
    Graph.iter_neighbors graph u (fun v _ ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.push v q
        end)
  done;
  assert (!idx = n);
  order

let build ?(r = 4) ?names ~rng graph =
  let n = Graph.n graph in
  let names = match names with Some a -> a | None -> Core.Name.default_array n in
  let vids = Array.map Hash_space.of_name names in
  let tables = Array.make n [] in
  (* Pairs whose path is set up, keyed [min * n + max]: the paths
     themselves live on only as the installed entries. *)
  let established : (int, unit) Hashtbl.t = Hashtbl.create (2 * n) in
  let established_key x y = if x < y then (x * n) + y else (y * n) + x in
  let fallbacks = ref 0 in
  let ws = Dijkstra.make_workspace graph in
  let joined = Array.make n false in
  (* The virtual ring order of all nodes is fixed by the vids; joining is
     membership, not insertion. Sort once, then a Fenwick tree over ring
     positions gives rank/select on the joined subset — each join is
     O(log n) where growing a sorted array by insertion was O(n). *)
  let full_ring = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Hash_space.compare_unsigned vids.(a) vids.(b) in
      if c <> 0 then c else Int.compare a b)
    full_ring;
  let ring_pos = Array.make n 0 in
  Array.iteri (fun i v -> ring_pos.(v) <- i) full_ring;
  let fen = Packed.Fenwick.create n in
  (* [ring_neighbors] over the joined subset, via Fenwick rank/select
     around [x]'s fixed ring position. *)
  let joined_ring_neighbors x =
    let total = Packed.Fenwick.total fen in
    if total = 0 then []
    else begin
      let half = max 1 (r / 2) in
      let start = Packed.Fenwick.prefix fen ring_pos.(x) mod total in
      let collect dir =
        let out = ref [] and i = ref start and seen = ref 0 and steps = ref 0 in
        if dir < 0 then i := (start + total - 1) mod total;
        while !seen < half && !steps < total do
          let candidate = full_ring.(Packed.Fenwick.kth fen !i) in
          if candidate <> x then begin
            out := candidate :: !out;
            incr seen
          end;
          incr steps;
          i := (!i + dir + total) mod total
        done;
        !out
      in
      List.sort_uniq Int.compare (collect 1 @ collect (-1))
    end
  in
  let shortest_path src dst =
    let run = Dijkstra.sssp ~ws ~until:dst graph src in
    Dijkstra.path_of_parents ~parent:(fun u -> run.Dijkstra.parent.(u)) ~src ~dst
  in
  (* --- setup-routing indexes ------------------------------------------
     Routing a setup request over the staging lists costs O(entries at u)
     per hop, and heavy-tailed hubs accumulate Θ(n) entries — overall
     quadratic build, the wall between the old 16k-node ceiling and the
     million-node sweep.  Three indexes make the two per-hop queries
     cheap while giving the same answers as the list scans (up to ties
     between distinct endpoints at exactly equal ring distance, which
     need colliding 64-bit vid differences):

     - [by_end]: (node, endpoint) -> newest-first entries naming that
       endpoint, for [next_toward]'s corridor lookup;
     - [ep_set]: per node, the ring positions of its stored endpoints,
       for the virtually-closest-endpoint query — in circular vid order
       the first usable candidate on each side of the destination
       realises that side's minimum arc, so probing two candidates finds
       the minimum ring distance;
     - [nbr_pos]: per node, its physical neighbors' ring positions,
       sorted once (the pset contributes candidates the same way). *)
  let by_end : (int, entry list) Hashtbl.t = Hashtbl.create (4 * n) in
  let ep_set = Array.make n Iset.empty in
  let nbr_pos =
    Array.init n (fun u ->
        let a =
          Array.init (Graph.degree graph u) (fun i ->
              ring_pos.(Graph.neighbor_at graph u i))
        in
        Array.sort Int.compare a;
        a)
  in
  let install path =
    match path with
    | [] | [ _ ] -> ()
    | first :: _ ->
        let arr = Array.of_list path in
        let len = Array.length arr in
        let last = arr.(len - 1) in
        for i = 0 to len - 1 do
          let z = arr.(i) in
          let next_a = if i = 0 then z else arr.(i - 1) in
          let next_b = if i = len - 1 then z else arr.(i + 1) in
          let e = { ea = first; eb = last; next_a; next_b } in
          tables.(z) <- e :: tables.(z);
          let index_endpoint ep =
            let key = (z * n) + ep in
            Hashtbl.replace by_end key
              (e :: Option.value ~default:[] (Hashtbl.find_opt by_end key));
            ep_set.(z) <- Iset.add ring_pos.(ep) ep_set.(z)
          in
          index_endpoint first;
          if last <> first then index_endpoint last
        done
  in
  (* [excl] is the joining node, excluded from the candidate set while its
     own setup request is routed (it is virtually closest to its vset
     targets, so allowing it would pull the request straight back; in real
     VRR the request is routed by a proxy before the joiner holds any
     paths); -1 once everyone has joined. *)
  let next_toward_idx ~excl u e =
    if Graph.has_edge graph u e && joined.(e) && e <> excl then Some e
    else
      match Hashtbl.find_opt by_end ((u * n) + e) with
      | None -> None
      | Some entries ->
          List.find_map
            (fun en ->
              if en.ea = e && en.next_a <> u then Some en.next_a
              else if en.eb = e && en.next_b <> u then Some en.next_b
              else None)
            entries
  in
  let best_endpoint_idx ~excl u ~dst ~bound =
    let usable e = joined.(e) && e <> excl in
    let best = ref None and best_d = ref bound in
    let consider e =
      if e <> u && usable e then begin
        let d = Hash_space.ring_distance vids.(e) vids.(dst) in
        if Hash_space.compare_unsigned d !best_d < 0 then begin
          best := Some e;
          best_d := d
        end
      end
    in
    let pd = ring_pos.(dst) in
    (* Physical neighbors: first usable candidate on each side of [pd],
       walking the sorted ring positions circularly. *)
    let a = nbr_pos.(u) in
    let len = Array.length a in
    if len > 0 then begin
      let lo = ref 0 and hi = ref len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if a.(mid) < pd then lo := mid + 1 else hi := mid
      done;
      let walk start dir =
        let rec go i steps =
          if steps < len then begin
            let e = full_ring.(a.(i)) in
            if e <> u && usable e then consider e
            else go ((i + dir + len) mod len) (steps + 1)
          end
        in
        go start 0
      in
      walk (!lo mod len) 1;
      walk ((!lo + len - 1) mod len) (-1)
    end;
    (* Stored endpoints: same two probes over the ordered set.  Every
       stored endpoint has joined, so a probe skips at most [u] and
       [excl]; the cap cannot bind, but if it ever did the staging list
       scan restores the exact answer. *)
    let s = ep_set.(u) in
    if not (Iset.is_empty s) then begin
      let overflow = ref false in
      let probe dir =
        let rec go b steps =
          if steps > 8 then overflow := true
          else
            let found =
              if dir > 0 then
                match Iset.find_first_opt (fun p -> p >= b) s with
                | Some _ as r -> r
                | None -> Iset.min_elt_opt s
              else
                match Iset.find_last_opt (fun p -> p <= b) s with
                | Some _ as r -> r
                | None -> Iset.max_elt_opt s
            in
            match found with
            | None -> ()
            | Some p ->
                let e = full_ring.(p) in
                if e <> u && usable e then consider e
                else go (p + dir) (steps + 1)
        in
        go pd 0
      in
      probe 1;
      probe (-1);
      if !overflow then
        List.iter
          (fun en ->
            consider en.ea;
            consider en.eb)
          tables.(u)
    end;
    (!best, !best_d)
  in
  let greedy_route ~excl ~src ~dst =
    greedy_route_gen ~graph
      ~next_toward:(fun u e -> next_toward_idx ~excl u e)
      ~best_endpoint:(fun u bound -> best_endpoint_idx ~excl u ~dst ~bound)
      ~direct:(fun u -> Graph.has_edge graph u dst && joined.(dst) && dst <> excl)
      ~src ~dst
  in
  let establish x y =
    let key = established_key x y in
    if not (Hashtbl.mem established key) then begin
      let path =
        match greedy_route ~excl:x ~src:x ~dst:y with
        | Some p -> p
        | None ->
            incr fallbacks;
            shortest_path x y
      in
      Hashtbl.replace established key ();
      install path
    end
  in
  let order = bfs_join_order rng graph in
  Array.iter
    (fun x ->
      let vset = joined_ring_neighbors x in
      joined.(x) <- true;
      Packed.Fenwick.add fen ring_pos.(x) 1;
      List.iter (fun y -> establish x y) vset)
    order;
  (* Converged vsets over the full ring; tear down stale paths. *)
  let final_vset_rows =
    Array.init n (fun x ->
        Array.of_list (ring_neighbors ~vids ~ring:full_ring ~r x))
  in
  let final_pairs = Hashtbl.create (2 * n) in
  Array.iteri
    (fun x vs -> Array.iter (fun y -> Hashtbl.replace final_pairs (pair_key x y) ()) vs)
    final_vset_rows;
  (* Any final pair missing a path (cannot normally happen): set it up over
     the fully built state. *)
  Hashtbl.iter
    (fun (x, y) () ->
      if not (Hashtbl.mem established (established_key x y)) then begin
        let path =
          match greedy_route ~excl:(-1) ~src:x ~dst:y with
          | Some p -> p
          | None ->
              incr fallbacks;
              shortest_path x y
        in
        Hashtbl.replace established (established_key x y) ();
        install path
      end)
    final_pairs;
  let ring_ok =
    let ok = ref true in
    Array.iteri
      (fun x vs ->
        Array.iter
          (fun y -> if not (Hashtbl.mem established (established_key x y)) then ok := false)
          vs)
      final_vset_rows;
    !ok
  in
  (* Converged state keeps every path established during the joins: VRR's
     converged state "depends on the order of node joins" (§5.1) precisely
     because setup-time paths persist; this is also what concentrates state
     on early hub nodes (Fig 4/5). Freeze the staging lists into the one
     packed table both faces read; the lists are newest-first, so blocks
     are written back to front to recover install order. *)
  let entries =
    Packed.Csr.of_fn ~n
      ~row_len:(fun v -> 4 * List.length tables.(v))
      ~fill:(fun v data off ->
        let j = ref (off + (4 * List.length tables.(v)) - 4) in
        List.iter
          (fun e ->
            data.(!j) <- e.ea;
            data.(!j + 1) <- e.eb;
            data.(!j + 2) <- e.next_a;
            data.(!j + 3) <- e.next_b;
            j := !j - 4)
          tables.(v))
  in
  {
    graph;
    r;
    vids;
    ring = full_ring;
    entries;
    final_vsets = Packed.Csr.of_rows final_vset_rows;
    fallbacks = !fallbacks;
    ring_ok;
  }

(* The route oracle's readers over the frozen CSR: same scan semantics as the
   staging-list helpers above, realised as backward 4-stride block scans
   (newest entry first). *)

let pk_next_toward t u e =
  if Graph.has_edge t.graph u e then Some e
  else begin
    let data = t.entries.Packed.Csr.data in
    let off = Packed.Csr.row_off t.entries u in
    let rec scan j =
      if j < off then None
      else if data.(j) = e && data.(j + 2) <> u then Some data.(j + 2)
      else if data.(j + 1) = e && data.(j + 3) <> u then Some data.(j + 3)
      else scan (j - 4)
    in
    scan (off + Packed.Csr.row_len t.entries u - 4)
  end

let pk_best_endpoint t u ~dst ~bound =
  let vd x = Hash_space.ring_distance t.vids.(x) t.vids.(dst) in
  let better a b = Hash_space.compare_unsigned a b < 0 in
  let best = ref None and best_d = ref bound in
  let consider endpoint =
    if endpoint <> u then begin
      let d = vd endpoint in
      if better d !best_d then begin
        best := Some endpoint;
        best_d := d
      end
    end
  in
  for i = 0 to Graph.degree t.graph u - 1 do
    consider (Graph.neighbor_at t.graph u i)
  done;
  let data = t.entries.Packed.Csr.data in
  let off = Packed.Csr.row_off t.entries u in
  let j = ref (off + Packed.Csr.row_len t.entries u - 4) in
  while !j >= off do
    consider data.(!j);
    consider data.(!j + 1);
    j := !j - 4
  done;
  (!best, !best_d)

let route t ~src ~dst =
  if src = dst then Some [ src ]
  else
    greedy_route_gen ~graph:t.graph
      ~next_toward:(fun u e -> pk_next_toward t u e)
      ~best_endpoint:(fun u bound -> pk_best_endpoint t u ~dst ~bound)
      ~direct:(fun u -> Graph.has_edge t.graph u dst)
      ~src ~dst

module D = Core.Dataplane

(* VRR's corridors can wander: the converged greedy walk is bounded by 8n
   decisions (matching [greedy_route]'s TTL). *)
let ttl_factor = 8

let packet_header (_ : t) ~src:_ ~dst =
  { (D.plain ~dst D.Greedy) with D.extra_bytes = 8 }

(* --- compiled forward -----------------------------------------------------

   Per-hop greedy forwarding for {!Dataplane.fast_walk}: exactly one
   [greedy_route] step. The packet carries the committed endpoint
   ([panchor]) and the monotone bound on the best virtual distance ever
   committed ([pvb_hi]/[pvb_lo]); max unsigned is the no-bound sentinel
   in both the packet and the route oracle. The header's 8 [extra_bytes]
   are the destination's virtual id.

   The oracle scans every neighbor and stored endpoint at every hop; the
   compiled face instead reads a candidate index built here once. Row [u]
   holds each distinct physical neighbor and stored endpoint of [u] (never
   [u] itself) as a 3-word block, sorted by ring position:

   - its ring position (rank in (unsigned vid, id) order);
   - its next hop: itself for a neighbor (the oracle's [has_edge] comes
     first), else the [next_toward] answer over the frozen blocks — the
     newest entry whose arm names it with a stored hop other than [u], ea
     arm before eb arm — or -1 for a broken corridor;
   - its scan rank: where it first appears in the oracle's scan
     (neighbors in CSR order, then entry blocks newest first, ea before
     eb), which breaks ties between candidates at equal ring distance.

   Ring distance to a destination is tent-shaped over a circularly sorted
   row: it never decreases walking forward from the destination's
   position until it peaks, then never increases back round to it. Every
   minimum therefore lies in the equal-vid run at the circular successor
   or the one at the predecessor, and the oracle's first minimum is the
   one of least scan rank among them. Vids are unsigned 32-bit halves
   ([fvhi]/[fvlo], indexed by ring position) so the ring metric is borrow
   arithmetic on ints — no Int64 ever boxes on the hop loop. *)

type fast = {
  fg : Graph.t;
  fpos : int array; (* node -> ring position *)
  fring : int array; (* ring position -> node, shared with [t] *)
  fvhi : int array;
  fvlo : int array;
  coff : int array; (* the index's n+1 row offsets, in words *)
  cand : int array; (* 3-word (position, next hop, scan rank) blocks *)
}

(* In-place heapsort of [a.(0 .. len-1)]. *)
let rec sift_down a i m =
  let l = (2 * i) + 1 in
  if l < m then begin
    let c = if l + 1 < m && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift_down a c m
    end
  end

let heapsort_prefix a len =
  for i = (len / 2) - 1 downto 0 do
    sift_down a i len
  done;
  for m = len - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(m);
    a.(m) <- x;
    sift_down a 0 m
  done

let compile t =
  let g = t.graph in
  let n = Graph.n g in
  let fring = t.ring in
  let fpos = Array.make n 0 in
  Array.iteri (fun p v -> fpos.(v) <- p) fring;
  let fvhi = Array.make n 0 and fvlo = Array.make n 0 in
  Array.iteri
    (fun p v ->
      let id = t.vids.(v) in
      fvhi.(p) <- Int64.to_int (Int64.shift_right_logical id 32);
      fvlo.(p) <- Int64.to_int (Int64.logand id 0xFFFFFFFFL))
    fring;
  let eoff = t.entries.Packed.Csr.off and ent = t.entries.Packed.Csr.data in
  (* [scan u see] walks [u]'s candidates in the oracle's scan order:
     [see x next] per occurrence, [next] being the hop that occurrence
     offers ([x] itself for a neighbor). *)
  let scan u see =
    for i = 0 to Graph.degree g u - 1 do
      let x = Graph.neighbor_at g u i in
      see x x
    done;
    let j = ref (eoff.(u + 1) - 4) in
    while !j >= eoff.(u) do
      see ent.(!j) ent.(!j + 2);
      see ent.(!j + 1) ent.(!j + 3);
      j := !j - 4
    done
  in
  (* Two passes straight into one flat array: count the distinct
     candidates per row, then fill each row. [stamp.(x)] marks [x] as seen
     in the current row (u in the first pass, n + u in the second), which
     makes [rank.(x)] and [hop.(x)] its entries; [buf] collects the row's
     ring positions for sorting. *)
  let stamp = Array.make n (-1) in
  let row_len u =
    let count = ref 0 in
    scan u (fun x _ ->
        if x <> u && stamp.(x) <> u then begin
          stamp.(x) <- u;
          incr count
        end);
    3 * !count
  in
  let rank = Array.make n 0 and hop = Array.make n (-1) and buf = Array.make n 0 in
  let fill u data off =
    let mark = n + u and len = ref 0 in
    scan u (fun x next ->
        if x <> u then begin
          let h = if next <> u then next else -1 in
          if stamp.(x) <> mark then begin
            stamp.(x) <- mark;
            rank.(x) <- !len;
            hop.(x) <- h;
            buf.(!len) <- fpos.(x);
            incr len
          end
          else if hop.(x) < 0 then hop.(x) <- h
        end);
    heapsort_prefix buf !len;
    for i = 0 to !len - 1 do
      let b = off + (3 * i) and x = fring.(buf.(i)) in
      data.(b) <- buf.(i);
      data.(b + 1) <- hop.(x);
      data.(b + 2) <- rank.(x)
    done
  in
  let index = Packed.Csr.of_fn ~n ~row_len ~fill in
  { fg = g; fpos; fring; fvhi; fvlo; coff = index.Packed.Csr.off; cand = index.Packed.Csr.data }

let fast_prime (_ : fast) ~src:_ ~dst:_ = ()

(* First candidate index in [lo, hi) whose ring position is >= [p]. *)
let rec fast_lower_bound f p lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if f.cand.(3 * mid) < p then fast_lower_bound f p (mid + 1) hi
    else fast_lower_bound f p lo mid

(* [best_endpoint]'s consider for candidate [i]: ring distance from the
   destination at ring position [pd] in unsigned halves (64-bit subtract
   with borrow, negate, unsigned min), then strict unsigned improvement
   over the best so far — or, at equal distance, a smaller scan rank
   ([pis]: 0 candidate index, 1 hi, 2 lo, 3 rank; rank -1 while the
   carried bound stands, which no candidate may tie). *)
let fast_consider f (pkt : D.packet) pd i =
  let pc = f.cand.(3 * i) in
  let ahi = f.fvhi.(pc) and alo = f.fvlo.(pc) in
  let bhi = f.fvhi.(pd) and blo = f.fvlo.(pd) in
  let slo = (blo - alo) land 0xFFFFFFFF in
  let sbw = if blo < alo then 1 else 0 in
  let shi = (bhi - ahi - sbw) land 0xFFFFFFFF in
  let nlo = -slo land 0xFFFFFFFF in
  let nbw = if slo > 0 then 1 else 0 in
  let nhi = (-shi - nbw) land 0xFFFFFFFF in
  let take_s = shi < nhi || (shi = nhi && slo <= nlo) in
  let dhi = if take_s then shi else nhi in
  let dlo = if take_s then slo else nlo in
  let rank = f.cand.((3 * i) + 2) in
  let pis = pkt.D.pis in
  if
    dhi < pis.(1)
    || dhi = pis.(1)
       && (dlo < pis.(2) || (dlo = pis.(2) && rank < pis.(3)))
  then begin
    pis.(0) <- i;
    pis.(1) <- dhi;
    pis.(2) <- dlo;
    pis.(3) <- rank
  end

(* Consider candidates from [i] in steps of [step] while their vid is
   ([vhi], [vlo]), stopping at index [stop]. *)
let rec fast_run f pkt pd i step stop vhi vlo =
  if i <> stop then begin
    let pc = f.cand.(3 * i) in
    if f.fvhi.(pc) = vhi && f.fvlo.(pc) = vlo then begin
      fast_consider f pkt pd i;
      fast_run f pkt pd (i + step) step stop vhi vlo
    end
  end

(* The stored hop toward [e] at a node whose row is [lo, hi): -1 when [e]
   is neither a neighbor nor a stored endpoint there. *)
let fast_hop_toward f e lo hi =
  let p = f.fpos.(e) in
  let i = fast_lower_bound f p lo hi in
  if i < hi && f.cand.(3 * i) = p then f.cand.((3 * i) + 1) else -1

let fast_step f (pkt : D.packet) u =
  let dst = pkt.D.pdst in
  if u = dst then D.fast_deliver
  else if Graph.has_edge f.fg u dst then dst
  else begin
    (* Candidate indexes: block [i] is [cand.(3i .. 3i+2)]. *)
    let lo = f.coff.(u) / 3 and hi = f.coff.(u + 1) / 3 in
    let pis = pkt.D.pis in
    pis.(0) <- -1;
    pis.(1) <- pkt.D.pvb_hi;
    pis.(2) <- pkt.D.pvb_lo;
    pis.(3) <- -1;
    if lo < hi then begin
      let pd = f.fpos.(dst) in
      let s = fast_lower_bound f pd lo hi in
      let s = if s = hi then lo else s in
      let p = if s = lo then hi - 1 else s - 1 in
      let ps = f.cand.(3 * s) and pp = f.cand.(3 * p) in
      fast_run f pkt pd s 1 hi f.fvhi.(ps) f.fvlo.(ps);
      fast_run f pkt pd p (-1) (lo - 1) f.fvhi.(pp) f.fvlo.(pp)
    end;
    let best = pis.(0) in
    if best >= 0 then begin
      let hop = f.cand.((3 * best) + 1) in
      if hop < 0 then D.fast_no_route (* broken corridor *)
      else begin
        pkt.D.panchor <- f.fring.(f.cand.(3 * best));
        pkt.D.pvb_hi <- pis.(1);
        pkt.D.pvb_lo <- pis.(2);
        hop
      end
    end
    else if pkt.D.panchor < 0 || pkt.D.panchor = u then D.fast_no_route
    else
      (* No strictly closer endpoint: keep following the committed one. *)
      let hop = fast_hop_toward f pkt.D.panchor lo hi in
      if hop < 0 then D.fast_no_route else hop
  end

let state_entries t =
  Array.init (Graph.n t.graph) (fun v ->
      (Packed.Csr.row_len t.entries v / 4) + Graph.degree t.graph v)

let state_bytes t v =
  (* Entry blocks are 4 words; the vset row, the pset (one word per
     physical neighbor) and the node's own vid are one word each. *)
  float_of_int
    (8
    * (Packed.Csr.row_len t.entries v
      + Packed.Csr.row_len t.final_vsets v
      + Graph.degree t.graph v + 1))

let vset t v = Packed.Csr.sub_row t.final_vsets v
let setup_fallbacks t = t.fallbacks

let ring_distance_ok t = t.ring_ok
