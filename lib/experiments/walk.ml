module Telemetry = Disco_util.Telemetry
module D = Disco_core.Dataplane
module Graph = Disco_graph.Graph

(* The trail grows to the largest TTL it has served, so one scratch walks
   every scheme (VRR's budget is twice the others'). *)
type scratch = { pkt : D.packet; mutable trail : int array }

let scratch g = { pkt = D.packet_create g; trail = [||] }

type t = {
  graph : Graph.t;
  ttl : int;
  plan : D.fast_plan;
  first_header : tel:Telemetry.t -> src:int -> dst:int -> D.header;
  later_header : tel:Telemetry.t -> src:int -> dst:int -> D.header;
}

let compile (type a) ?plan (module R : Protocol.ROUTER with type t = a) (rt : a)
    ~graph =
  {
    graph;
    ttl = R.ttl_factor * Graph.n graph;
    plan = (match plan with Some p -> p | None -> R.compile rt);
    first_header = R.first_header rt;
    later_header = R.later_header rt;
  }

type kind = First | Later

(* Prime, load, walk, record; returns the header the source emitted. *)
let walk_with w sc ~tel kind ~src ~dst ~step =
  w.plan.D.fprime ~src ~dst;
  let header =
    match kind with
    | First -> w.first_header ~tel ~src ~dst
    | Later -> w.later_header ~tel ~src ~dst
  in
  D.load_packet sc.pkt header;
  if Array.length sc.trail <= w.ttl then sc.trail <- Array.make (w.ttl + 1) (-1);
  D.fast_walk w.graph ~step sc.pkt ~src ~ttl:w.ttl ~trail:sc.trail;
  Telemetry.packet_walked tel ~delivered:sc.pkt.D.pdelivered ~hops:sc.pkt.D.phops;
  if sc.pkt.D.pfallback then Telemetry.resolution_fallback tel;
  header

let run w sc ~tel kind ~src ~dst =
  ignore (walk_with w sc ~tel kind ~src ~dst ~step:w.plan.D.fstep : D.header)

let delivered sc = sc.pkt.D.pdelivered
let fell_back sc = sc.pkt.D.pfallback
let drop sc = sc.pkt.D.pdrop
let path sc = List.init (sc.pkt.D.phops + 1) (fun i -> sc.trail.(i))

let length g sc =
  let rec go acc i =
    if i >= sc.pkt.D.phops then acc
    else
      match Graph.edge_weight g sc.trail.(i) sc.trail.(i + 1) with
      | Some wt -> go (acc +. wt) (i + 1)
      | None -> invalid_arg "Walk.length: not a path"
  in
  go 0.0 0

let route w sc ~tel kind ~src ~dst =
  run w sc ~tel kind ~src ~dst;
  if delivered sc then Some (path sc) else None

(* --- traces ----------------------------------------------------------- *)

type decision = {
  at : int;
  verdict : int;
  header : D.header;
  bytes : int;
  resolved : bool;
}

type trace = {
  path : int list;
  decisions : decision list;
  delivered : bool;
  drop : int;
  hops : int;
  header_bytes_max : int;
  header_bytes_total : int;
}

(* The step wrapper reads the packet after each decision: the header a
   forwarding node puts on the link is the one it just rewrote.  Only the
   first [hops] decisions moved the packet, so only those carry bytes. *)
let trace w sc ~tel kind ~src ~dst =
  let decisions = ref [] in
  let step pkt u =
    let before = pkt.D.pfallback in
    let verdict = w.plan.D.fstep pkt u in
    let header = D.view pkt in
    decisions :=
      {
        at = u;
        verdict;
        header;
        bytes = D.byte_size w.graph ~at:u header;
        resolved = pkt.D.pfallback && not before;
      }
      :: !decisions;
    verdict
  in
  let emitted = walk_with w sc ~tel kind ~src ~dst ~step in
  let decisions = List.rev !decisions in
  let hops = sc.pkt.D.phops in
  let carried =
    if src = dst then [ D.byte_size w.graph ~at:src emitted ]
    else List.filteri (fun i _ -> i < hops) (List.map (fun d -> d.bytes) decisions)
  in
  {
    path = path sc;
    decisions;
    delivered = sc.pkt.D.pdelivered;
    drop = sc.pkt.D.pdrop;
    hops;
    header_bytes_max = List.fold_left max 0 carried;
    header_bytes_total = List.fold_left ( + ) 0 carried;
  }

let phase_name = function
  | D.Seek { tried_proxy } -> if tried_proxy then "seek (proxy tried)" else "seek"
  | D.Steer { tried_proxy } -> if tried_proxy then "steer (proxy tried)" else "steer"
  | D.Carry -> "carry"
  | D.Greedy -> "greedy"
  | D.Fallback -> "fallback"

let verdict_to_string v =
  if v >= 0 then Printf.sprintf "forward to %d" v
  else if v = D.fast_deliver then "deliver"
  else if v = D.fast_no_route then "drop: no route"
  else "drop: protocol error"

let header_summary (h : D.header) bytes =
  let field cond s = if cond then [ s ] else [] in
  String.concat ", "
    ([ phase_name h.D.phase ]
    @ (match List.length h.D.labels with
      | 0 -> []
      | 1 -> [ "1 label" ]
      | k -> [ Printf.sprintf "%d labels" k ])
    @ field (h.D.waypoint >= 0) (Printf.sprintf "waypoint %d" h.D.waypoint)
    @ field (h.D.anchor >= 0) (Printf.sprintf "anchor %d" h.D.anchor)
    @ field (Float.is_finite h.D.fbound) (Printf.sprintf "bound %g" h.D.fbound)
    @ [ Printf.sprintf "%d B" bytes ])

let pp_trace ppf t =
  Format.fprintf ppf "@[<v>path: %s%s"
    (String.concat "-" (List.map string_of_int t.path))
    (if t.delivered then ""
     else Printf.sprintf "  (NOT DELIVERED: %s)" (D.drop_to_string t.drop));
  List.iter
    (fun d ->
      Format.fprintf ppf "@,  at %d: %s%s%s" d.at (verdict_to_string d.verdict)
        (if d.verdict >= 0 then "  [" ^ header_summary d.header d.bytes ^ "]" else "")
        (if d.resolved then "  (resolution fallback)" else ""))
    t.decisions;
  Format.fprintf ppf "@]"
