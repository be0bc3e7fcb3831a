(* Smoke test of the benchmark at tiny sizes: every workload, untraced and
   traced, passes its output check and prints every metric of its mode
   with the catalogue's unit (end-to-end ones nonzero), and the catalogue
   is exactly what BENCHMARK.json declares. *)

module Json = Disco_util.Json
module W = Perfbench.Workloads

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt

let declared doc key =
  List.map
    (fun m ->
      match (Json.string_member "name" m, Json.string_member "unit" m) with
      | Some name, Some unit -> (name, unit)
      | _ -> fail "BENCHMARK.json: %s entry without name or unit" key)
    (Json.list_member key doc)

let check_catalogue () =
  match Json.of_file "../BENCHMARK.json" with
  | Error e -> fail "BENCHMARK.json: %s" e
  | Ok doc ->
      let same key ours =
        if declared doc key <> ours then fail "BENCHMARK.json %s differs from Catalog" key
      in
      same "end_to_end" Perfbench.Catalog.end_to_end;
      same "per_layer" Perfbench.Catalog.per_layer;
      let workloads =
        List.filter_map (Json.string_member "name") (Json.list_member "workloads" doc)
      in
      if workloads <> W.names then fail "BENCHMARK.json workloads differ from Workloads.names"

let check_run workload ~trace =
  let o, _ = W.run ~size:W.tiny ~workload ~seed:7 ~seconds:0.02 ~trace in
  let tag = Printf.sprintf "%s trace=%b" workload trace in
  if o.W.failed <> 0 then fail "%s: %d failed operations" tag o.W.failed;
  if o.W.attempted < 1 then fail "%s: nothing attempted" tag;
  match Json.parse (W.result_json o ~trace) with
  | Error e -> fail "%s: result is not JSON: %s" tag e
  | Ok result ->
      let keys = match result with Json.Obj kv -> List.map fst kv | _ -> [] in
      if keys <> [ "correct"; "attempted"; "failed"; "metrics" ] then
        fail "%s: result keys %s" tag (String.concat "," keys);
      let metrics = Option.value ~default:Json.Null (Json.member "metrics" result) in
      let expected =
        if trace then Perfbench.Catalog.per_layer else Perfbench.Catalog.end_to_end
      in
      List.iter
        (fun (name, unit) ->
          match Json.member name metrics with
          | None -> fail "%s: %s missing" tag name
          | Some m ->
              if Json.string_member "unit" m <> Some unit then
                fail "%s: %s has the wrong unit" tag name;
              let v = Option.value ~default:Float.nan (Json.float_member "value" m) in
              if Float.is_nan v || ((not trace) && v <= 0.0) then
                fail "%s: %s = %g" tag name v)
        expected;
      (match metrics with
      | Json.Obj kv when List.length kv = List.length expected -> ()
      | _ -> fail "%s: metrics beyond the catalogue" tag);
      Printf.printf "smoke: %s ok (%d metrics, %d attempted)\n" tag
        (List.length expected) o.W.attempted

let () =
  check_catalogue ();
  List.iter
    (fun w ->
      check_run w ~trace:false;
      check_run w ~trace:true)
    W.names
