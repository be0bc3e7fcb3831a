(* Scaling sweep (`--figure scaling`): build every registered scheme on a
   GLP topology decade by decade (10^3 up to 10^6 at `--scale paper`) and
   record exact per-node state bytes (sampled nodes), sampled-pair
   delivery and stretch against a Dijkstra oracle, build time, and peak
   RSS.  This is the empirical check of the paper's Õ(√n) state claim:
   the run ends with a log-log least-squares fit of state bytes vs n per
   scheme and fails (nonzero exit) if disco or nddisco grow with a fitted
   exponent above 0.6.  At `--scale small` it also fails when the
   process's peak RSS passes a 4 GB ceiling.

   Delivery and stretch come from each scheme's closed-form first-packet
   oracle, not a walk: walking Disco means compiling it, which forces
   every vicinity — more than 13 minutes and 5.6 GB at n = 10^5 — while
   the oracle touches only the nodes its routes need.  disco-check's
   walk ≡ oracle differential holds the two to the same delivery verdict
   and weighted length, so the columns are the walk's.

   Rows checkpoint to BENCH_scaling.json (`--json` overrides the path)
   after every scheme of every decade; re-running with the same file
   resumes, skipping (scheme, n) pairs already present — million-node
   builds are slow enough that losing a decade to an interrupt would
   hurt.  The checkpoint is read back with {!Disco_util.Json}, the same
   structural reader the alloc gate uses. *)

module Testbed = Disco_experiments.Testbed
module Routers = Disco_experiments.Routers
module Protocol = Disco_experiments.Protocol
module Scale = Disco_experiments.Scale
module Telemetry = Disco_util.Telemetry
module Json = Disco_util.Json
module Rng = Disco_util.Rng
module Graph = Disco_graph.Graph
module Gen = Disco_graph.Gen
module Dijkstra = Disco_graph.Dijkstra

type row = {
  scheme : string;
  n : int;
  state_nodes : int; (* nodes sampled for the state columns *)
  state_mean : float; (* bytes per node over the sample *)
  state_max : float;
  walks : int;
  delivered : int;
  stretch_mean : float; (* over delivered walks; nan when none *)
  build_s : float;
  vmhwm_kb : float; (* process peak RSS when the row finished *)
}

let decades scale =
  match scale with
  | Scale.Small -> [ 1_000; 10_000; 100_000 ]
  | Scale.Paper -> [ 1_000; 10_000; 100_000; 1_000_000 ]

let state_sample_cap = 64
let walk_count = 32

let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0 (* not Linux; the column reads 0 *)
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> acc
        | line ->
            let acc =
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                String.sub line 6 (String.length line - 6)
                |> String.to_seq
                |> Seq.filter (fun c -> c >= '0' && c <= '9')
                |> String.of_seq
                |> fun digits -> float_of_string ("0" ^ digits)
              else acc
            in
            go acc
      in
      let r = go 0.0 in
      close_in ic;
      r

(* --- one (scheme, decade) measurement ------------------------------- *)

let measure_scheme tb ~ws (p : Protocol.packed) =
  let (module R) = p in
  let graph = tb.Testbed.graph in
  let n = Graph.n graph in
  let t0 = Unix.gettimeofday () in
  let rt = R.build tb in
  let build_s = Unix.gettimeofday () -. t0 in
  (* State: exact packed bytes on a deterministic node sample — 64 nodes
     bound the cost of per-node accounting at n = 10^6 without hiding the
     tail (max over the sample is reported alongside the mean). *)
  let sample =
    Rng.sample_without_replacement
      (Testbed.rng tb ~purpose:73)
      (min state_sample_cap n) n
  in
  let state_sum = ref 0.0 and state_max = ref 0.0 in
  Array.iter
    (fun v ->
      let b = R.state_bytes rt v in
      state_sum := !state_sum +. b;
      if b > !state_max then state_max := b)
    sample;
  (* Sampled first packets: the oracle's delivery verdict and route,
     stretch against an early-stopped Dijkstra. *)
  let tel = Telemetry.create () in
  let rng = Testbed.rng tb ~purpose:74 in
  let delivered = ref 0 and stretch_sum = ref 0.0 in
  for _ = 1 to walk_count do
    let src = Rng.int rng n in
    let dst =
      let rec draw () =
        let d = Rng.int rng n in
        if d = src then draw () else d
      in
      draw ()
    in
    match R.oracle_first rt ~tel ~src ~dst with
    | None -> ()
    | Some route ->
        incr delivered;
        let routed = Dijkstra.path_length graph route in
        let shortest = (Dijkstra.sssp ~ws ~until:dst graph src).Dijkstra.dist.(dst) in
        if shortest > 0.0 then stretch_sum := !stretch_sum +. (routed /. shortest)
  done;
  {
    scheme = R.name;
    n;
    state_nodes = Array.length sample;
    state_mean = !state_sum /. float_of_int (Array.length sample);
    state_max = !state_max;
    walks = walk_count;
    delivered = !delivered;
    stretch_mean =
      (if !delivered = 0 then Float.nan
       else !stretch_sum /. float_of_int !delivered);
    build_s;
    vmhwm_kb = vmhwm_kb ();
  }

(* --- checkpoint file ------------------------------------------------- *)

let json_of_rows ~seed rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\n  \"figure\": \"scaling\",\n  \"seed\": %d,\n  \"topology\": \
        \"glp\",\n  \"rows\": [\n" seed);
  List.iteri
    (fun i r ->
      let stretch =
        (* bare nan is not JSON; a row with no delivered walk omits the
           member and [read_checkpoint] restores the nan *)
        if Float.is_nan r.stretch_mean then ""
        else Printf.sprintf "\"stretch_mean\": %.4f, " r.stretch_mean
      in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"scheme\": %S, \"n\": %d, \"state_nodes\": %d, \
            \"state_mean_bytes\": %.1f, \"state_max_bytes\": %.1f, \
            \"walks\": %d, \"delivered\": %d, %s\"build_s\": %.2f, \
            \"vmhwm_kb\": %.0f}%s\n"
           r.scheme r.n r.state_nodes r.state_mean r.state_max r.walks
           r.delivered stretch r.build_s r.vmhwm_kb
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let checkpoint ~seed ~path rows =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (json_of_rows ~seed rows);
  close_out oc;
  Sys.rename tmp path

(* Rows already in the checkpoint, oldest first.  [stretch_mean] may be
   the literal [nan] when no walk delivered; our reader rejects bare nan
   (it is not JSON), so those resume rows drop the field and re-read as
   nan here. *)
let read_checkpoint path =
  if not (Sys.file_exists path) then []
  else
    match Json.of_file path with
    | Error e ->
        Printf.printf "  (ignoring unreadable checkpoint %s: %s)\n" path e;
        []
    | Ok doc ->
        List.filter_map
          (fun r ->
            match
              ( Json.string_member "scheme" r,
                Json.int_member "n" r,
                Json.float_member "state_mean_bytes" r,
                Json.float_member "state_max_bytes" r )
            with
            | Some scheme, Some n, Some state_mean, Some state_max ->
                Some
                  {
                    scheme;
                    n;
                    state_nodes =
                      Option.value ~default:0 (Json.int_member "state_nodes" r);
                    state_mean;
                    state_max;
                    walks = Option.value ~default:0 (Json.int_member "walks" r);
                    delivered =
                      Option.value ~default:0 (Json.int_member "delivered" r);
                    stretch_mean =
                      Option.value ~default:Float.nan
                        (Json.float_member "stretch_mean" r);
                    build_s =
                      Option.value ~default:0.0 (Json.float_member "build_s" r);
                    vmhwm_kb =
                      Option.value ~default:0.0 (Json.float_member "vmhwm_kb" r);
                  }
            | _ -> None)
          (Json.list_member "rows" doc)

(* --- exponent fit and gate ------------------------------------------- *)

(* Least-squares slope of ln(state_mean) over ln(n): the fitted growth
   exponent.  Needs two distinct decades. *)
let fit_exponent rows =
  let pts =
    List.filter_map
      (fun r ->
        if r.state_mean > 0.0 then Some (log (float_of_int r.n), log r.state_mean)
        else None)
      rows
  in
  let distinct_x = List.sort_uniq compare (List.map fst pts) in
  if List.length distinct_x < 2 then None
  else begin
    let m = float_of_int (List.length pts) in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
    Some (((m *. sxy) -. (sx *. sy)) /. ((m *. sxx) -. (sx *. sx)))
  end

let exponent_cap = 0.6
let gated_schemes = [ "disco"; "nddisco" ]

let gate_exponents rows =
  let schemes = List.sort_uniq compare (List.map (fun r -> r.scheme) rows) in
  Printf.printf "\n  %-12s %10s\n" "scheme" "exponent";
  let violations =
    List.filter_map
      (fun scheme ->
        let own = List.filter (fun r -> r.scheme = scheme) rows in
        match fit_exponent own with
        | None ->
            Printf.printf "  %-12s %10s\n" scheme "-";
            None
        | Some e ->
            let gated = List.mem scheme gated_schemes in
            Printf.printf "  %-12s %10.3f%s\n" scheme e
              (if gated then Printf.sprintf "  (gate: <= %.1f)" exponent_cap
               else "");
            if gated && e > exponent_cap then
              Some
                (Printf.sprintf "%s state grows as n^%.3f > n^%.1f" scheme e
                   exponent_cap)
            else None)
      schemes
  in
  match violations with
  | [] -> Printf.printf "scaling gate: state exponents within bounds\n"
  | vs ->
      raise
        (Sys_error
           (Printf.sprintf "scaling regression:\n  %s" (String.concat "\n  " vs)))

(* The small sweep (to n = 10^5) must fit in 4 GB of peak RSS, so a
   regression to boxed per-node state fails before anyone tries the
   million-node run.  Read from /proc/self/status; off Linux it reads 0
   and passes. *)
let rss_ceiling_kb = 4.0 *. 1024.0 *. 1024.0

let gate_rss scale =
  match scale with
  | Scale.Paper -> ()
  | Scale.Small ->
      let peak = vmhwm_kb () in
      Printf.printf "peak RSS: %.0f kB (ceiling %.0f kB)\n" peak rss_ceiling_kb;
      if peak > rss_ceiling_kb then
        raise
          (Sys_error
             (Printf.sprintf "scaling regression: peak RSS %.0f kB over the %.0f kB ceiling"
                peak rss_ceiling_kb))

(* --- driver ----------------------------------------------------------- *)

let print_row r =
  Printf.printf
    "  %-12s %9d %12.1f %12.1f %5d/%d %8s %9.1fs %9.0f\n%!" r.scheme r.n
    r.state_mean r.state_max r.delivered r.walks
    (if Float.is_nan r.stretch_mean then "-"
     else Printf.sprintf "%.3f" r.stretch_mean)
    r.build_s r.vmhwm_kb

let run ?json ~seed scale =
  let path = Option.value json ~default:"BENCH_scaling.json" in
  let resumed = read_checkpoint path in
  if resumed <> [] then
    Printf.printf "resuming: %d rows already in %s\n" (List.length resumed) path;
  let have = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace have (r.scheme, r.n) ()) resumed;
  Printf.printf
    "\n== scaling: state bytes and sampled routes per decade (GLP, seed %d) ==\n\
     %!"
    seed;
  Printf.printf "  %-12s %9s %12s %12s %7s %8s %10s %9s\n" "scheme" "n"
    "state-mean-B" "state-max-B" "deliv" "stretch" "build" "VmHWM-kB";
  let rows = ref (List.rev resumed) in
  (* newest first; reversed at output *)
  List.iter
    (fun n ->
      let todo =
        List.filter
          (fun p -> not (Hashtbl.mem have (Protocol.name_of p, n)))
          (Routers.all ())
      in
      if todo <> [] then begin
        let t0 = Unix.gettimeofday () in
        let tb = Testbed.make ~seed Gen.Glp ~n in
        Printf.printf "  -- n=%d: topology + shared protocols in %.1fs\n%!" n
          (Unix.gettimeofday () -. t0);
        let ws = Dijkstra.make_workspace tb.Testbed.graph in
        List.iter
          (fun p ->
            let r = measure_scheme tb ~ws p in
            print_row r;
            rows := r :: !rows;
            checkpoint ~seed ~path (List.rev !rows))
          todo
      end)
    (decades scale);
  let rows = List.rev !rows in
  (* Plot-ready CSV block (README shows the gnuplot/py one-liner). *)
  Printf.printf "\n-- csv --\n";
  Printf.printf "scheme,n,state_mean_bytes,state_max_bytes,delivered,walks,stretch_mean,build_s,vmhwm_kb\n";
  List.iter
    (fun r ->
      Printf.printf "%s,%d,%.1f,%.1f,%d,%d,%.4f,%.2f,%.0f\n" r.scheme r.n
        r.state_mean r.state_max r.delivered r.walks r.stretch_mean r.build_s
        r.vmhwm_kb)
    rows;
  Printf.printf "wrote %s\n" path;
  gate_exponents rows;
  gate_rss scale
