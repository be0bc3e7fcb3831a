type workspace = {
  g_n : int;
  dist : float array;
  par : int array;
  stamp : int array; (* which run last touched this slot *)
  order : int array; (* the run's settled nodes, in settle order *)
  mutable settled : int; (* how much of [order] the run has filled *)
  (* The frontier: an indexed binary min-heap of the touched, unsettled
     nodes, keyed by (dist, push sequence) so equal distances pop FIFO.
     A node is in it iff touched this run and [pos >= 0]; a relaxation
     that shortens a queued node gives it a fresh sequence number, which
     is the order a heap of re-pushed entries would pop it in. *)
  heap : int array;
  pos : int array; (* slot in [heap] while queued, -1 once settled *)
  seq : int array; (* push sequence of the node's current key *)
  mutable len : int;
  mutable next_seq : int;
  mutable run : int;
}

let make_workspace g =
  let n = Graph.n g in
  {
    g_n = n;
    dist = Array.make n infinity;
    par = Array.make n (-1);
    stamp = Array.make n (-1);
    order = Array.make n 0;
    settled = 0;
    heap = Array.make n 0;
    pos = Array.make n (-1);
    seq = Array.make n 0;
    len = 0;
    next_seq = 0;
    run = 0;
  }

let fresh_run ws g =
  if ws.g_n <> Graph.n g then invalid_arg "Dijkstra: workspace/graph mismatch";
  ws.run <- ws.run + 1;
  ws.settled <- 0;
  ws.len <- 0;
  ws.next_seq <- 0;
  ws.run

let get_ws ws g = match ws with Some w -> w | None -> make_workspace g

let seen ws run v = ws.stamp.(v) = run
let is_settled ws run v = seen ws run v && ws.pos.(v) < 0

let less ws a b =
  let da = ws.dist.(a) and db = ws.dist.(b) in
  da < db || (da = db && ws.seq.(a) < ws.seq.(b))

let place ws v i =
  ws.heap.(i) <- v;
  ws.pos.(v) <- i

(* Move [v] up from slot [i] to where its key belongs. *)
let sift_up ws v i =
  let i = ref i in
  while !i > 0 && less ws v ws.heap.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    place ws ws.heap.(p) !i;
    i := p
  done;
  place ws v !i

(* Move [v] down from slot [i] to where its key belongs. *)
let sift_down ws v i =
  let i = ref i and fin = ref false in
  while not !fin do
    let l = (2 * !i) + 1 in
    if l >= ws.len then fin := true
    else begin
      let c = if l + 1 < ws.len && less ws ws.heap.(l + 1) ws.heap.(l) then l + 1 else l in
      let cv = ws.heap.(c) in
      if less ws cv v then begin
        place ws cv !i;
        i := c
      end
      else fin := true
    end
  done;
  place ws v !i

(* Queue [v] via [p] at the distance the caller has just written to
   [ws.dist.(v)] (a float argument would be boxed per call): a first
   touch, or a shorter path to a queued node. *)
let push ws run v p =
  let queued = seen ws run v in
  ws.par.(v) <- p;
  ws.stamp.(v) <- run;
  ws.seq.(v) <- ws.next_seq;
  ws.next_seq <- ws.next_seq + 1;
  if queued then sift_up ws v ws.pos.(v)
  else begin
    ws.len <- ws.len + 1;
    sift_up ws v (ws.len - 1)
  end

let pop ws =
  let top = ws.heap.(0) in
  ws.pos.(top) <- -1;
  ws.len <- ws.len - 1;
  if ws.len > 0 then sift_down ws ws.heap.(ws.len) 0;
  top

(* What a search does at a newly settled node: relax its edges, leave
   them unrelaxed, or end the run. *)
type visit = Expand | Prune | Halt

(* Core loop. [visit] inspects each newly settled node; its distance is
   [ws.dist]. The run settles at most [closest] nodes and never queues a
   node at distance >= [radius]. Within those bounds it also skips the
   first touch of a node that cannot be among the first [closest]: once
   [closest] nodes are touched, every one of them ranks ahead of a new
   node whose distance is at least the largest first-touch distance so
   far (a queued key only falls, and the new node's sequence is later),
   so on power-law graphs a hub's scan stops queueing once the
   neighbourhood is full. A node skipped here is offered again if a
   shorter path reaches it, so the settled prefix is exactly the
   unbounded run's. *)
let run_dijkstra ws g sources ~closest ~radius ~visit =
  let run = fresh_run ws g in
  let row = g.Graph.row and col = g.Graph.col and wgt = g.Graph.wgt in
  let touched = ref 0 and reach = ref 0.0 in
  for i = 0 to Array.length sources - 1 do
    let s = sources.(i) in
    if (not (seen ws run s)) && 0.0 < radius then begin
      ws.dist.(s) <- 0.0;
      push ws run s (-1);
      incr touched
    end
  done;
  let halted = ref false in
  while (not !halted) && ws.len > 0 && ws.settled < closest do
    let u = pop ws in
    ws.order.(ws.settled) <- u;
    ws.settled <- ws.settled + 1;
    match visit u with
    | Halt -> halted := true
    | Prune -> ()
    | Expand ->
        if ws.settled < closest then begin
          let du = ws.dist.(u) in
          for i = row.(u) to row.(u + 1) - 1 do
            let v = col.(i) in
            let nd = du +. wgt.(i) in
            if not (seen ws run v) then begin
              if nd < radius && not (!touched >= closest && nd >= !reach) then begin
                ws.dist.(v) <- nd;
                push ws run v u;
                incr touched;
                if nd > !reach then reach := nd
              end
            end
            else if ws.pos.(v) >= 0 && nd < ws.dist.(v) then begin
              ws.dist.(v) <- nd;
              push ws run v u
            end
          done
        end
  done;
  run

let expand_all _ = Expand

type sssp = { dist : float array; parent : int array }

let sssp ?ws ?until g src =
  let ws = get_ws ws g in
  let visit =
    match until with
    | None -> expand_all
    | Some t -> fun u -> if u = t then Halt else Expand
  in
  ignore (run_dijkstra ws g [| src |] ~closest:max_int ~radius:infinity ~visit : int);
  let n = Graph.n g in
  let dist = Array.make n infinity and parent = Array.make n (-1) in
  for i = 0 to ws.settled - 1 do
    let v = ws.order.(i) in
    dist.(v) <- ws.dist.(v);
    parent.(v) <- ws.par.(v)
  done;
  { dist; parent }

let distance ?ws g src dst =
  if src = dst then 0.0
  else begin
    let ws = get_ws ws g in
    let visit u = if u = dst then Halt else Expand in
    let run = run_dijkstra ws g [| src |] ~closest:max_int ~radius:infinity ~visit in
    if is_settled ws run dst then ws.dist.(dst) else infinity
  end

type truncated = {
  source : int;
  order : int array;
  tdist : float array;
  tparent : int array;
}

let collect_truncated ws src =
  let count = ws.settled in
  let order = Array.sub ws.order 0 count in
  let tdist = Array.make count 0.0 and tparent = Array.make count (-1) in
  for i = 0 to count - 1 do
    let v = order.(i) in
    tdist.(i) <- ws.dist.(v);
    tparent.(i) <- ws.par.(v)
  done;
  { source = src; order; tdist; tparent }

let k_closest ?ws g src k =
  let ws = get_ws ws g in
  ignore (run_dijkstra ws g [| src |] ~closest:k ~radius:infinity ~visit:expand_all : int);
  collect_truncated ws src

let within_radius ?ws g src r =
  let ws = get_ws ws g in
  ignore (run_dijkstra ws g [| src |] ~closest:max_int ~radius:r ~visit:expand_all : int);
  collect_truncated ws src

let pruned ~ws g src ~expand =
  ignore
    (run_dijkstra ws g [| src |] ~closest:max_int ~radius:infinity ~visit:(fun u ->
         if expand u ws.dist.(u) then Expand else Prune)
      : int)

type multi = { mdist : float array; mparent : int array; msource : int array }

let multi_source g sources =
  let ws = make_workspace g in
  let n = Graph.n g in
  let msource = Array.make n (-1) in
  (* Track the originating source through the forest: when a node settles,
     it inherits its parent's source label. *)
  let visit u =
    let p = ws.par.(u) in
    msource.(u) <- (if p = -1 then u else msource.(p));
    Expand
  in
  let run = run_dijkstra ws g sources ~closest:max_int ~radius:infinity ~visit in
  let mdist = Array.make n infinity and mparent = Array.make n (-1) in
  for v = 0 to n - 1 do
    if is_settled ws run v then begin
      mdist.(v) <- ws.dist.(v);
      mparent.(v) <- ws.par.(v)
    end
    else msource.(v) <- -1
  done;
  { mdist; mparent; msource }

let path_of_parents ~parent ~src ~dst =
  let rec walk v acc steps =
    if steps < 0 then invalid_arg "Dijkstra.path_of_parents: no path";
    if v = src then src :: acc else walk (parent v) (v :: acc) (steps - 1)
  in
  walk dst [] 1_000_000_000

let path_length g path =
  let rec go acc = function
    | [] | [ _ ] -> acc
    | u :: (v :: _ as rest) -> (
        match Graph.edge_weight g u v with
        | Some w -> go (acc +. w) rest
        | None -> invalid_arg "Dijkstra.path_length: not a path")
  in
  go 0.0 path
