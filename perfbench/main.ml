(* The benchmark's command line:

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Prints the run's envelope (seed, revision, host, sizes) as one JSON
   line, then the result as the last line:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
   A traced run also writes its spans as Chrome trace-event JSON under
   .perfbench/.  Exits 1 when an output check failed. *)

let usage = "main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       " one of " ^ String.concat ", " Perfbench.Workloads.names);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time per run");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics from a traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Perfbench.Workloads.names) then begin
    prerr_endline
      ("unknown workload '" ^ !workload ^ "'; known: "
      ^ String.concat ", " Perfbench.Workloads.names);
    exit 2
  end;
  let trace = !trace = 1 in
  let o, sp =
    Perfbench.Workloads.run ~size:Perfbench.Workloads.full ~workload:!workload
      ~seed:!seed ~seconds:!seconds ~trace
  in
  let envelope = Perfbench.Workloads.envelope_json o in
  let result = Perfbench.Workloads.result_json o ~trace in
  if trace then begin
    let dir = ".perfbench" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Printf.sprintf "%s/trace-%s-%d.json" dir !workload !seed in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (Perfbench.Span.to_chrome_json sp ~meta:envelope));
    prerr_endline ("trace written to " ^ path)
  end;
  print_endline ("{\"envelope\": " ^ envelope ^ "}");
  print_endline result;
  if o.Perfbench.Workloads.failed > 0 then exit 1
