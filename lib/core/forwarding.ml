module Graph = Disco_graph.Graph
module D = Dataplane

let ttl_factor = 4

let deliver_check (d : Disco.t) ~src ~dst =
  match Vicinity.path d.Disco.nd.Nddisco.vicinity dst src with
  | Some p when src <> dst -> Some (List.rev p)
  | _ -> None

(* Rewrite at a node that holds [dst]'s address: the route to the
   destination's landmark from the node's own landmark table, then the
   explicit label route. *)
let address_route (nd : Nddisco.t) u dst =
  let addr = Nddisco.address nd dst in
  let lm = addr.Address.landmark in
  let label_path =
    Address.decode nd.Nddisco.graph ~landmark:lm ~labels:addr.Address.labels
      ~hops:(Address.hops addr)
  in
  if u = lm then label_path
  else Landmark_trees.path_to nd.Nddisco.trees u ~lm @ List.tl label_path

let first_header (_ : Disco.t) ~src:_ ~dst =
  D.plain ~dst (D.Seek { tried_proxy = false })

let carry_header ~dst path =
  match path with
  | _ :: rest -> { (D.plain ~dst D.Carry) with D.labels = rest }
  | [] -> D.plain ~dst D.Carry

let later_header (d : Disco.t) ~src ~dst =
  if src = dst then D.plain ~dst D.Carry
  else
    (* The source now holds the address (and the handshake path when the
       destination sent one). *)
    match deliver_check d ~src ~dst with
    | Some exact -> carry_header ~dst exact
    | None -> (
        match address_route d.Disco.nd src dst with
        | _ :: _ as p -> carry_header ~dst p
        | [] -> first_header d ~src ~dst)

(* NDDisco's data plane is the pure Carry machine: the source already
   holds the destination's address, so first packets follow the raw route
   with per-hop to-destination shortcutting. *)
let first_header_nd (nd : Nddisco.t) ~src ~dst =
  carry_header ~dst (Nddisco.raw_route nd ~src ~dst)

let later_header_nd (nd : Nddisco.t) ~src ~dst =
  match Vicinity.path nd.Nddisco.vicinity dst src with
  | Some p when src <> dst -> carry_header ~dst (List.rev p)
  | _ -> first_header_nd nd ~src ~dst

(* ------------------------------------------------------------------ *)
(* The compiled data plane reads the control plane's packed state in
   place — vicinity views and landmark tree rows straight out of their
   stores, address routes off Nddisco's CSR, the resolution owner from
   the Othello FIB — so compiling copies nothing.  Name hashes split into
   unsigned 32-bit halves so the group tests never box an Int64. *)

type fast = {
  ffg : Graph.t;
  fis_lm : bool array;
  ftrees : Landmark_trees.t;
  fvic : Vicinity.t;
  fghi : int array;  (* name-hash top/bottom 32 bits ([||] for NDDisco) *)
  fglo : int array;
  fgbits : int array;  (* per-node group prefix width *)
  ffib : Packed.Othello.t option;  (* resolution owner FIB; None for NDDisco *)
  falm : int array;  (* address landmark per node (shared slab) *)
  faroute : Packed.Csr.t;  (* address node paths [lm; ...; v] (shared CSR) *)
}

(* Every hop reads the holding node's view, and which nodes a walk visits
   is not known when a flow is primed, so compiling fills every view. *)
let compile_nd (nd : Nddisco.t) =
  Vicinity.precompute_all nd.Nddisco.vicinity;
  {
    ffg = nd.Nddisco.graph;
    fis_lm = nd.Nddisco.landmarks.Landmarks.is_landmark;
    ftrees = nd.Nddisco.trees;
    fvic = nd.Nddisco.vicinity;
    fghi = [||];
    fglo = [||];
    fgbits = [||];
    ffib = None;
    falm = nd.Nddisco.addresses.Nddisco.alm;
    faroute = nd.Nddisco.addresses.Nddisco.aroute;
  }

let compile (d : Disco.t) =
  let nd = d.Disco.nd in
  let base = compile_nd nd in
  let n = Graph.n nd.Nddisco.graph in
  let fghi = Array.make n 0 in
  let fglo = Array.make n 0 in
  let fgbits = Array.make n 0 in
  for v = 0 to n - 1 do
    let hi, lo = Packed.split64 nd.Nddisco.hashes.(v) in
    fghi.(v) <- hi;
    fglo.(v) <- lo;
    fgbits.(v) <- Groups.bits_of d.Disco.groups v
  done;
  { base with fghi; fglo; fgbits; ffib = Some (Resolution.fib d.Disco.resolution) }

let fast_prime_lm f lm = ignore (Landmark_trees.parents f.ftrees ~lm : int array)

let fast_prime_nd f ~src:_ ~dst = if f.fis_lm.(dst) then fast_prime_lm f dst

let fast_owner f dst =
  match f.ffib with
  | Some fib -> Packed.Othello.query fib ~hi:f.fghi.(dst) ~lo:f.fglo.(dst)
  | None -> -1

let fast_prime f ~src:_ ~dst =
  if f.fis_lm.(dst) then fast_prime_lm f dst
  else begin
    fast_prime_lm f f.falm.(dst);
    fast_prime_lm f (fast_owner f dst)
  end

(* [w]'s index in a view's sorted member row, or -1. *)
let rec vseg_search (mem : int array) w lo hi =
  if lo > hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    let m = mem.(mid) in
    if m = w then mid
    else if m < w then vseg_search mem w (mid + 1) hi
    else vseg_search mem w lo (mid - 1)
  end

let vseg_find (vw : Vicinity.view) w =
  let mem = vw.Vicinity.members in
  vseg_search mem w 0 (Array.length mem - 1)

(* Label count of the vicinity path [v ~> x] in V(v) = [vw], with [x]
   already counted in [acc]; -1 when the view does not resolve it —
   exactly the cases where [Vicinity.path] returns None. *)
let rec vchain_len vw v x acc =
  let j = vseg_find vw x in
  if j < 0 then -1
  else begin
    let p = vw.Vicinity.parents.(j) in
    if p = v then acc else vchain_len vw v p (acc + 1)
  end

let rec vfill_back vw (pkt : D.packet) x i =
  pkt.D.proute.(i) <- x;
  if i > 0 then vfill_back vw pkt vw.Vicinity.parents.(vseg_find vw x) (i - 1)

(* Load the [c] labels of the vicinity path to [w] in view [vw] (probed
   first with [vchain_len]) into the route window. *)
let vfill vw (pkt : D.packet) w c =
  vfill_back vw pkt w (c - 1);
  pkt.D.proute_pos <- 0;
  pkt.D.proute_end <- c

(* Load the node's direct route to [dst] — its landmark-table route when
   [dst] is a landmark, else its vicinity route — into the route window.
   Returns the label count (>= 1, window loaded), 0 (no local route,
   window untouched), or -1 on a broken or unfilled landmark tree. *)
let local_fill f pkt u dst =
  if f.fis_lm.(dst) then begin
    let parents = Landmark_trees.row f.ftrees dst in
    if Array.length parents = 0 then -1
    else begin
      let c = D.route_fill_up pkt parents u dst in
      if c < 1 then -1 else c
    end
  end
  else begin
    let vw = Vicinity.peek f.fvic u in
    let c = vchain_len vw u dst 1 in
    if c < 1 then 0
    else begin
      vfill vw pkt dst c;
      c
    end
  end

(* [address_route] as a fill: the landmark-tree leg [u ~> l_dst] then the
   address labels.  Returns the label count or -1 (broken or unfilled
   landmark tree). *)
let addr_fill f (pkt : D.packet) u dst =
  let lm = f.falm.(dst) in
  let roff = f.faroute.Packed.Csr.off.(dst) in
  let rdata = f.faroute.Packed.Csr.data in
  let hops = f.faroute.Packed.Csr.off.(dst + 1) - roff - 1 in
  if u = lm then begin
    Array.blit rdata (roff + 1) pkt.D.proute 0 hops;
    pkt.D.proute_pos <- 0;
    pkt.D.proute_end <- hops;
    hops
  end
  else begin
    let parents = Landmark_trees.row f.ftrees lm in
    if Array.length parents = 0 then -1
    else begin
      let c = D.route_fill_up pkt parents u lm in
      if c < 0 then -1
      else begin
        Array.blit rdata (roff + 1) pkt.D.proute pkt.D.proute_end hops;
        pkt.D.proute_end <- pkt.D.proute_end + hops;
        c + hops
      end
    end
  end

(* Group tests over the hash halves (prefix widths are <= 30 < 32, so the
   prefix always lives in the top half). *)
let fd_prefix f v width = if width = 0 then 0 else f.fghi.(v) lsr (32 - width)

let fd_believes f v w =
  let b = f.fgbits.(v) in
  b = 0 || fd_prefix f w b = fd_prefix f v b

let fd_same_group f v w = fd_believes f v w && fd_believes f w v

let rec clz32_from x i =
  if i >= 32 then 32 else if (x lsr (31 - i)) land 1 = 1 then i else clz32_from x (i + 1)

(* [Hash_space.common_prefix_len] over the halves. *)
let fd_cpl f a b =
  let xh = f.fghi.(a) lxor f.fghi.(b) in
  if xh <> 0 then clz32_from xh 0
  else begin
    let xl = f.fglo.(a) lxor f.fglo.(b) in
    if xl = 0 then 64 else 32 + clz32_from xl 0
  end

(* [best_group_proxy]'s scan over V(u)'s member row: best proxy id in
   [pis.(1)], its prefix length in [pis.(2)], its distance in [pfs.(1)];
   same order (members ascending) and tie rule as
   [Disco.best_group_proxy]. *)
let rec proxy_scan f (pkt : D.packet) (vw : Vicinity.view) dst i stop =
  if i < stop then begin
    let w = vw.Vicinity.members.(i) in
    if w <> dst then begin
      let len = fd_cpl f w dst in
      let d = vw.Vicinity.dists.(i) in
      if len > pkt.D.pis.(2) || (len = pkt.D.pis.(2) && d < pkt.D.pfs.(1)) then begin
        pkt.D.pis.(1) <- w;
        pkt.D.pis.(2) <- len;
        pkt.D.pfs.(1) <- d
      end
    end;
    proxy_scan f pkt vw dst (i + 1) stop
  end

(* The step machine.  A first packet toward a flat name goes through
   phases:
   - Seek, at the source: deliver, or follow a direct route from the
     node's own tables, or — when the node shares the destination's
     sloppy group — carry the address from its group store, else head for
     the best group proxy in the vicinity (Steer);
   - at the proxy (waypoint, labels exhausted): re-classify; a miss falls
     back to the resolution database's owner, reached over its landmark
     tree (Steer again, flagged in [pfallback]);
   - Carry: consume the explicit label route, with to-destination
     shortcutting wherever a node holds a direct route.
   Any node on a Steer leg holding a direct route diverts ("to-destination"
   shortcutting), so the remaining distance strictly decreases. *)
let rec fd_seek f (pkt : D.packet) u tried =
  let dst = pkt.D.pdst in
  if u = dst then D.fast_deliver
  else begin
    let c = local_fill f pkt u dst in
    if c >= 1 then begin
      pkt.D.pmode <- D.mode_carry;
      pkt.D.pway <- -1;
      D.route_next pkt
    end
    else if c < 0 then D.fast_protocol
    else if fd_same_group f u dst then fd_addr_carry f pkt u dst
    else if not tried then begin
      pkt.D.pis.(1) <- -1;
      pkt.D.pis.(2) <- -1;
      pkt.D.pfs.(1) <- infinity;
      let vw = Vicinity.peek f.fvic u in
      proxy_scan f pkt vw dst 0 (Array.length vw.Vicinity.members);
      let w = pkt.D.pis.(1) in
      if w >= 0 && fd_same_group f w dst then begin
        if w = u then fd_resolution f pkt u dst
        else begin
          let cw = vchain_len vw u w 1 in
          if cw >= 1 then begin
            vfill vw pkt w cw;
            pkt.D.pmode <- D.mode_steer_tried;
            pkt.D.pway <- w;
            D.route_next pkt
          end
          else D.fast_no_route
        end
      end
      else fd_resolution f pkt u dst
    end
    else fd_resolution f pkt u dst
  end

and fd_addr_carry f (pkt : D.packet) u dst =
  let c = addr_fill f pkt u dst in
  if c < 0 then D.fast_protocol
  else if c = 0 then D.fast_no_route
  else begin
    pkt.D.pmode <- D.mode_carry;
    pkt.D.pway <- -1;
    D.route_next pkt
  end

and fd_resolution f (pkt : D.packet) u dst =
  let r = fd_resolution_leg f pkt u dst in
  if r >= 0 then pkt.D.pfallback <- true;
  r

and fd_resolution_leg f (pkt : D.packet) u dst =
  let owner = fast_owner f dst in
  if u = owner then fd_addr_carry f pkt u dst
  else begin
    let parents = Landmark_trees.row f.ftrees owner in
    if Array.length parents = 0 then D.fast_protocol
    else begin
      let c = D.route_fill_up pkt parents u owner in
      if c < 1 then D.fast_protocol
      else begin
        pkt.D.pmode <- D.mode_steer_tried;
        pkt.D.pway <- owner;
        D.route_next pkt
      end
    end
  end

and fd_steer f (pkt : D.packet) u tried =
  let dst = pkt.D.pdst in
  if u = dst then D.fast_deliver
  else if D.route_len pkt = 0 then begin
    pkt.D.pway <- -1;
    fd_seek f pkt u tried
  end
  else begin
    let c = local_fill f pkt u dst in
    if c >= 1 then begin
      pkt.D.pmode <- D.mode_carry;
      pkt.D.pway <- -1;
      D.route_next pkt
    end
    else if c < 0 then D.fast_protocol
    else D.route_next pkt
  end

and fd_carry f (pkt : D.packet) u =
  let dst = pkt.D.pdst in
  if u = dst then D.fast_deliver
  else begin
    let c = local_fill f pkt u dst in
    if c >= 1 then D.route_next pkt
    else if c < 0 then D.fast_protocol
    else if D.route_len pkt > 0 then D.route_next pkt
    else D.fast_no_route
  end

let fast_step f (pkt : D.packet) u =
  let m = pkt.D.pmode in
  if m = D.mode_seek then fd_seek f pkt u false
  else if m = D.mode_seek_tried then fd_seek f pkt u true
  else if m = D.mode_steer then fd_steer f pkt u false
  else if m = D.mode_steer_tried then fd_steer f pkt u true
  else if m = D.mode_carry then fd_carry f pkt u
  else D.fast_protocol

let fast_step_nd f (pkt : D.packet) u =
  if pkt.D.pmode = D.mode_carry then fd_carry f pkt u else D.fast_protocol
