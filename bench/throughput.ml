(* Fast-path throughput figure (`--figure throughput`): packets/sec and
   hops/sec through the compiled zero-alloc walker, per scheme, for first
   (resolving) and later (converged) headers.  The engine lives in
   Disco_experiments.Fastwalk; this is the CLI face: scale mapping, the
   table, the BENCH_throughput.json snapshot via `--json FILE`, and the
   allocation gate — the run fails if any row allocates more than
   [max_words_per_hop] minor words per hop (the timed loop reads the
   allocation counter a few times, so a clean row sits at a few words
   over 10^5 hops). *)

module Fastwalk = Disco_experiments.Fastwalk
module Scale = Disco_experiments.Scale

let max_words_per_hop = 0.001

let gate rows =
  match List.filter (fun r -> r.Fastwalk.words_per_hop > max_words_per_hop) rows with
  | [] ->
      Printf.printf "alloc gate: every row within %.3f words/hop\n" max_words_per_hop
  | bad ->
      raise
        (Sys_error
           (String.concat "\n"
              (List.map
                 (fun r ->
                   Printf.sprintf "alloc regression: %s/%s allocates %.4f words/hop (> %.3f)"
                     r.Fastwalk.scheme r.Fastwalk.kind r.Fastwalk.words_per_hop
                     max_words_per_hop)
                 bad)))

let run ?json ~seed scale =
  let n = match scale with Scale.Small -> 512 | Scale.Paper -> 4096 in
  let flows = match scale with Scale.Small -> 512 | Scale.Paper -> 1024 in
  let reps = 25 in
  Printf.printf
    "\n== throughput: batched fast-path walker (n=%d, %d flows x %d reps \
     per row) ==\n%!"
    n flows reps;
  let rows = Fastwalk.measure ~seed ~n ~flows ~reps in
  let total_hops =
    List.fold_left (fun acc r -> acc + r.Fastwalk.hops) 0 rows
  in
  Printf.printf "  %-12s %-6s %9s %10s %12s %12s %10s\n" "scheme" "kind"
    "packets" "hops" "pkts/sec" "hops/sec" "words/hop";
  List.iter
    (fun r ->
      Printf.printf "  %-12s %-6s %9d %10d %12.0f %12.0f %10.4f\n"
        r.Fastwalk.scheme r.Fastwalk.kind r.Fastwalk.packets r.Fastwalk.hops
        r.Fastwalk.packets_per_sec r.Fastwalk.hops_per_sec
        r.Fastwalk.words_per_hop)
    rows;
  Printf.printf "  total flow-hops routed: %d\n" total_hops;
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Fastwalk.json_of_rows ~seed ~n ~flows ~reps rows);
      close_out oc;
      Printf.printf "wrote %s\n" path);
  gate rows
