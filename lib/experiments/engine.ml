module Graph = Disco_graph.Graph
module Dijkstra = Disco_graph.Dijkstra
module Rng = Disco_util.Rng
module Stats = Disco_util.Stats
module Telemetry = Disco_util.Telemetry
module Pool = Disco_util.Pool

let now () = Telemetry.now_s ()

type config = {
  seed : int;
  scale : Scale.t;
  jobs : int;
  tel : Telemetry.t;
}

let path_stretch graph ~dist path =
  if dist <= 0.0 then 1.0 else Dijkstra.path_length graph path /. dist

let draw_pairs ?(dests_per_src = 8) rng ~n ~pairs =
  let sources = max 1 ((pairs + dests_per_src - 1) / dests_per_src) in
  List.init sources (fun _ ->
      let s = Rng.int rng n in
      let ds =
        List.init dests_per_src (fun _ -> Rng.int rng n)
        |> List.filter (fun d -> d <> s)
        |> List.sort_uniq compare
      in
      (s, ds))

type task = {
  t_index : int;
  t_seed : int;
  t_src : int;
  t_dests : int list;
}

let plan ~seed groups =
  Array.of_list
    (List.mapi
       (fun i (src, dests) ->
         { t_index = i; t_seed = Rng.derive seed i; t_src = src; t_dests = dests })
       groups)

(* One task = one source group = one SSSP oracle. Everything a task touches
   is private (its accumulator from [init], a per-task telemetry record) or
   lent to the worker running it ([Pool.run_with]: one Dijkstra workspace
   plus the caller's [scratch], both pure scratch), so the result and the
   merged counters cannot depend on which domain ran what; [Pool.run_with]
   returns in index order and the [?tel] fold below walks that order. *)
let run ?pool ?tel graph tasks ~scratch ~init ~visit =
  let exec (ws, s) task =
    let task_tel = Telemetry.create () in
    let acc = init task in
    Telemetry.sssp_run task_tel;
    let sp = Dijkstra.sssp ~ws graph task.t_src in
    List.iter
      (fun dst ->
        let dist = sp.Dijkstra.dist.(dst) in
        if dist > 0.0 && dist < infinity then
          visit acc s ~tel:task_tel ~src:task.t_src ~dst ~dist)
      task.t_dests;
    (acc, task_tel)
  in
  let lend p =
    Pool.run_with p
      ~scratch:(fun () -> (Dijkstra.make_workspace graph, scratch ()))
      tasks exec
  in
  let out =
    match pool with Some p -> lend p | None -> Pool.with_pool ~jobs:1 lend
  in
  (match tel with
  | Some t -> Array.iter (fun (_, task_tel) -> Telemetry.add ~into:t task_tel) out
  | None -> ());
  Array.map fst out

let with_jobs jobs f =
  if jobs > 1 then Pool.with_pool ~jobs (fun p -> f (Some p)) else f None

let pool_map pool xs f =
  match pool with Some p -> Pool.run p xs f | None -> Array.map f xs

let map_groups ?(jobs = 1) ?tel ~seed graph groups f =
  let tasks = plan ~seed groups in
  let accs =
    with_jobs jobs (fun pool ->
        run ?pool ?tel graph tasks ~scratch:ignore
          ~init:(fun _ -> ref [])
          ~visit:(fun cell () ~tel:_ ~src ~dst ~dist ->
            cell := f ~src ~dst ~dist :: !cell))
  in
  Array.of_list
    (List.concat_map (fun cell -> List.rev !cell) (Array.to_list accs))

let map_pairs ?jobs ?tel ?dests_per_src ~pairs ~seed rng graph f =
  let groups = draw_pairs ?dests_per_src rng ~n:(Graph.n graph) ~pairs in
  map_groups ?jobs ?tel ~seed graph groups f

type sampled = {
  router : string;
  flat_names : string;
  first : float array;
  later : float array;
  first_failures : int;
  later_failures : int;
  state : float array;
  tel : Telemetry.snapshot;
  elapsed_s : float;
}

(* One converged ROUTER instance, compiled once.  [b_fork] hands out
   per-task walkers over forked handles (R.fork), which is what makes the
   measurement loop safe to run on the pool: any query-time mutable state
   is private to the handle, and the compiled plan is shareable. *)
type built = {
  b_name : string;
  b_flat : string;
  b_state : int -> int;
  b_fork : unit -> Walk.t;
  b_build_s : float;
}

(* Measurements execute the scheme's data plane: every sampled pair is a
   packet walked hop by hop over the compiled forward, not a closed-form
   oracle route. *)
let instantiate (module R : Protocol.ROUTER) tb =
  let t0 = now () in
  let r = R.build tb in
  let graph = tb.Testbed.graph in
  let plan = R.compile r in
  {
    b_name = R.name;
    b_flat = R.flat_names;
    b_state = R.state_entries r;
    b_fork = (fun () -> Walk.compile ~plan (module R) (R.fork r) ~graph);
    b_build_s = now () -. t0;
  }

let state_array (module R : Protocol.ROUTER) tb =
  let r = R.build tb in
  Array.init (Graph.n tb.Testbed.graph) (fun v -> float_of_int (R.state_entries r v))

(* Per-task, per-router accumulator. Stretch samples are consed in visit
   order and reversed at merge time, so the concatenation over tasks (in
   index order) reproduces the sequential sample order exactly. *)
type slot = {
  s_walk : Walk.t;
  s_tel : Telemetry.t;
  mutable s_first : float list;
  mutable s_later : float list;
  mutable s_first_failures : int;
  mutable s_later_failures : int;
  mutable s_seconds : float;
}

(* Every vicinity view, filled once on the pool before any router is built
   or timed.  Disco's and NDDisco's compile read all n views; filling them
   here makes that a shared testbed phase (like the NDDisco build itself)
   instead of a cost charged to whichever router compiles first.  The
   memo is fill-safe across domains. *)
let fill_vicinities pool (tb : Testbed.t) =
  let vicinity = (Testbed.nd tb).Disco_core.Nddisco.vicinity in
  ignore
    (pool_map pool
       (Array.init (Graph.n tb.Testbed.graph) Fun.id)
       (fun v -> ignore (Disco_core.Vicinity.view vicinity v : Disco_core.Vicinity.view))
      : unit array)

let sample_pairs ?(pairs = 2000) ?(dests_per_src = 8) ?(purpose = 11)
    ?(jobs = 1) ?tel ~routers (tb : Testbed.t) =
  let graph = tb.Testbed.graph in
  let n = Graph.n graph in
  with_jobs jobs (fun pool ->
      fill_vicinities pool tb;
      let routers = Array.of_list routers in
      (* Build phase: router builds are independent (each draws from its own
         derived RNG stream), so they fan out over the pool too. *)
      let built = pool_map pool routers (fun r -> instantiate r tb) in
      let rng = Testbed.rng tb ~purpose in
      let groups = draw_pairs ~dests_per_src rng ~n ~pairs in
      let tasks = plan ~seed:(Rng.derive tb.Testbed.seed purpose) groups in
      let stretch ~dist sc = if dist <= 0.0 then 1.0 else Walk.length graph sc /. dist in
      let accs =
        run ?pool ?tel graph tasks
          ~scratch:(fun () -> Walk.scratch graph)
          ~init:(fun _ ->
            Array.map
              (fun b ->
                {
                  s_walk = b.b_fork ();
                  s_tel = Telemetry.create ();
                  s_first = [];
                  s_later = [];
                  s_first_failures = 0;
                  s_later_failures = 0;
                  s_seconds = 0.0;
                })
              built)
          ~visit:(fun slots sc ~tel:_ ~src ~dst ~dist ->
            Array.iter
              (fun s ->
                let t0 = now () in
                Telemetry.route_call s.s_tel;
                Walk.run s.s_walk sc ~tel:s.s_tel Walk.First ~src ~dst;
                if Walk.delivered sc then s.s_first <- stretch ~dist sc :: s.s_first
                else begin
                  Telemetry.route_failure s.s_tel;
                  s.s_first_failures <- s.s_first_failures + 1
                end;
                Telemetry.route_call s.s_tel;
                Walk.run s.s_walk sc ~tel:s.s_tel Walk.Later ~src ~dst;
                if Walk.delivered sc then s.s_later <- stretch ~dist sc :: s.s_later
                else begin
                  Telemetry.route_failure s.s_tel;
                  s.s_later_failures <- s.s_later_failures + 1
                end;
                s.s_seconds <- s.s_seconds +. (now () -. t0))
              slots)
      in
      let tasks_of ri = List.map (fun slots -> slots.(ri)) (Array.to_list accs) in
      List.mapi
        (fun ri b ->
          let slots = tasks_of ri in
          let r_tel = Telemetry.merge (List.map (fun s -> s.s_tel) slots) in
          (match tel with Some t -> Telemetry.add ~into:t r_tel | None -> ());
          let collect f = Array.of_list (List.concat_map (fun s -> List.rev (f s)) slots) in
          let sum f = List.fold_left (fun a s -> a + f s) 0 slots in
          let s =
            {
              router = b.b_name;
              flat_names = b.b_flat;
              first = collect (fun s -> s.s_first);
              later = collect (fun s -> s.s_later);
              first_failures = sum (fun s -> s.s_first_failures);
              later_failures = sum (fun s -> s.s_later_failures);
              state = Array.init n (fun v -> float_of_int (b.b_state v));
              tel = Telemetry.snapshot r_tel;
              elapsed_s =
                b.b_build_s
                +. List.fold_left (fun a s -> a +. s.s_seconds) 0.0 slots;
            }
          in
          let summarize a =
            if Array.length a = 0 then (Float.nan, Float.nan)
            else
              let st = Stats.summarize a in
              (st.Stats.mean, st.Stats.max)
          in
          let fm, fx = summarize s.first in
          let lm, lx = summarize s.later in
          let sm, sx = summarize s.state in
          Results.record
            {
              Results.figure = Results.current_figure ();
              router = s.router;
              samples = Array.length s.first;
              stretch_first_mean = fm;
              stretch_first_max = fx;
              stretch_later_mean = lm;
              stretch_later_max = lx;
              state_mean = sm;
              state_max = sx;
              failures = s.first_failures + s.later_failures;
              route_calls = r_tel.Telemetry.route_calls;
              resolution_fallbacks = r_tel.Telemetry.resolution_fallbacks;
              messages = r_tel.Telemetry.messages_sent;
              elapsed_s = s.elapsed_s;
            };
          s)
        (Array.to_list built))

let find_sampled name samples =
  List.find_opt (fun s -> s.router = name) samples
