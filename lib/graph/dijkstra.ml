module Heap = Disco_util.Heap

type workspace = {
  g_n : int;
  dist : float array;
  par : int array;
  stamp : int array; (* which run last touched this slot *)
  settled : int array; (* which run settled this slot *)
  heap : int Heap.t;
  mutable run : int;
}

let make_workspace g =
  let n = Graph.n g in
  {
    g_n = n;
    dist = Array.make n infinity;
    par = Array.make n (-1);
    stamp = Array.make n (-1);
    settled = Array.make n (-1);
    heap = Heap.create ();
    run = 0;
  }

let fresh_run ws g =
  if ws.g_n <> Graph.n g then invalid_arg "Dijkstra: workspace/graph mismatch";
  ws.run <- ws.run + 1;
  Heap.clear ws.heap;
  ws.run

let get_ws ws g = match ws with Some w -> w | None -> make_workspace g

let touch ws run v d p =
  ws.dist.(v) <- d;
  ws.par.(v) <- p;
  ws.stamp.(v) <- run

let seen ws run v = ws.stamp.(v) = run
let is_settled ws run v = ws.settled.(v) = run

(* What a search does at a newly settled node: relax its edges, leave
   them unrelaxed, or end the run. *)
type visit = Expand | Prune | Halt

(* Core loop. [visit] inspects each newly settled node (with its settle
   index and distance). *)
let run_dijkstra ws g sources ~visit =
  let run = fresh_run ws g in
  Array.iter
    (fun s ->
      touch ws run s 0.0 (-1);
      Heap.push ws.heap 0.0 s)
    sources;
  let settle_count = ref 0 in
  let halted = ref false in
  while (not !halted) && not (Heap.is_empty ws.heap) do
    match Heap.pop ws.heap with
    | None -> halted := true
    | Some (d, u) ->
        if not (is_settled ws run u) then begin
          ws.settled.(u) <- run;
          let idx = !settle_count in
          incr settle_count;
          match visit u idx d with
          | Halt -> halted := true
          | Prune -> ()
          | Expand ->
              Graph.iter_neighbors g u (fun v w ->
                  let nd = d +. w in
                  if (not (is_settled ws run v))
                     && ((not (seen ws run v)) || nd < ws.dist.(v))
                  then begin
                    touch ws run v nd u;
                    Heap.push ws.heap nd v
                  end)
        end
  done;
  run

type sssp = { dist : float array; parent : int array }

let sssp ?ws ?until g src =
  let ws = get_ws ws g in
  let visit =
    match until with
    | None -> fun _ _ _ -> Expand
    | Some t -> fun u _ _ -> if u = t then Halt else Expand
  in
  let run = run_dijkstra ws g [| src |] ~visit in
  let n = Graph.n g in
  let dist = Array.make n infinity and parent = Array.make n (-1) in
  for v = 0 to n - 1 do
    if is_settled ws run v then begin
      dist.(v) <- ws.dist.(v);
      parent.(v) <- ws.par.(v)
    end
  done;
  { dist; parent }

let distance ?ws g src dst =
  if src = dst then 0.0
  else begin
    let ws = get_ws ws g in
    let result = ref infinity in
    let visit u _ d =
      if u = dst then begin
        result := d;
        Halt
      end
      else Expand
    in
    ignore (run_dijkstra ws g [| src |] ~visit : int);
    !result
  end

type truncated = {
  source : int;
  order : int array;
  tdist : float array;
  tparent : int array;
}

let collect_truncated ws g src ~stop =
  let order = ref [] in
  let visit u idx d =
    if stop u idx d then Halt
    else begin
      order := u :: !order;
      Expand
    end
  in
  ignore (run_dijkstra ws g [| src |] ~visit : int);
  let order = Array.of_list (List.rev !order) in
  let tdist = Array.map (fun v -> ws.dist.(v)) order in
  let tparent =
    Array.map (fun v -> if v = src then -1 else ws.par.(v)) order
  in
  { source = src; order; tdist; tparent }

let k_closest ?ws g src k =
  let ws = get_ws ws g in
  let k = min k (Graph.n g) in
  collect_truncated ws g src ~stop:(fun _ idx _ -> idx >= k)

let within_radius ?ws g src r =
  let ws = get_ws ws g in
  collect_truncated ws g src ~stop:(fun _ _ d -> d >= r)

let pruned ~ws g src ~expand =
  ignore
    (run_dijkstra ws g [| src |] ~visit:(fun u _ d ->
         if expand u d then Expand else Prune)
      : int)

type multi = { mdist : float array; mparent : int array; msource : int array }

let multi_source g sources =
  let ws = make_workspace g in
  let n = Graph.n g in
  let msource = Array.make n (-1) in
  (* Track the originating source through the forest: when a node settles,
     it inherits its parent's source label. *)
  let visit u _ _ =
    let p = ws.par.(u) in
    msource.(u) <- (if p = -1 then u else msource.(p));
    Expand
  in
  let run = run_dijkstra ws g sources ~visit in
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

let truncated_lookup t =
  let tbl = Hashtbl.create (2 * Array.length t.order) in
  Array.iteri
    (fun i v -> Hashtbl.replace tbl v (t.tdist.(i), t.tparent.(i)))
    t.order;
  fun v -> Hashtbl.find_opt tbl v

let path_length g path =
  let rec go acc = function
    | [] | [ _ ] -> acc
    | u :: (v :: _ as rest) -> (
        match Graph.edge_weight g u v with
        | Some w -> go (acc +. w) rest
        | None -> invalid_arg "Dijkstra.path_length: not a path")
  in
  go 0.0 path
