(* Disco_util.Pool: the one concurrency primitive in the tree (lint L6).
   The contract under test is the determinism argument of DESIGN.md §5d:
   [run] returns results in input index order, identical to the sequential
   map, for every jobs value; exceptions propagate (lowest failing index
   wins); pools are reusable across batches. *)

module Pool = Disco_util.Pool

exception Boom of int

let squares n = Array.init n (fun i -> i * i)

let test_sequential_jobs1 () =
  Pool.with_pool ~jobs:1 (fun p ->
      let out = Pool.run p (Array.init 17 Fun.id) (fun i -> i * i) in
      Alcotest.(check (array int)) "jobs=1 maps in order" (squares 17) out)

let test_order_preserved () =
  (* Skewed per-task cost, so late indices finish first if the pool ran
     them in parallel; the output must still land in input order. *)
  Pool.with_pool ~jobs:4 (fun p ->
      let n = 64 in
      let work i =
        let spin = (n - i) * 2000 in
        let acc = ref 0 in
        for k = 1 to spin do
          acc := (!acc + k) land 0xFFFF
        done;
        ignore (Sys.opaque_identity !acc);
        i * i
      in
      let out = Pool.run p (Array.init n Fun.id) work in
      Alcotest.(check (array int)) "jobs=4 preserves index order" (squares n) out)

let test_matches_sequential () =
  let input = Array.init 33 (fun i -> (i * 7919) mod 101) in
  let f x = (x * x) + (3 * x) + 1 in
  let seq = Array.map f input in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d equals jobs=1" jobs)
            seq (Pool.run p input f)))
    [ 1; 2; 4 ]

let test_exception_propagates () =
  Pool.with_pool ~jobs:3 (fun p ->
      let raised =
        match
          Pool.run p (Array.init 20 Fun.id) (fun i ->
              if i mod 7 = 3 then raise (Boom i) else i)
        with
        | _ -> None
        | exception Boom i -> Some i
      in
      (* Indices 3, 10 and 17 all fail; the re-raise is the lowest one, so
         the error a caller sees does not depend on scheduling. *)
      Alcotest.(check (option int)) "lowest failing index wins" (Some 3) raised);
  (* The pool variable is scoped inside with_pool; a failed batch must not
     poison the next one. *)
  Pool.with_pool ~jobs:3 (fun p ->
      (match Pool.run p [| 0; 1 |] (fun _ -> raise Exit) with
      | _ -> Alcotest.fail "expected Exit"
      | exception Exit -> ());
      let out = Pool.run p [| 2; 3 |] (fun x -> x + 1) in
      Alcotest.(check (array int)) "pool survives a failed batch" [| 3; 4 |] out)

let test_reuse_and_empty () =
  Pool.with_pool ~jobs:2 (fun p ->
      Alcotest.(check (array int)) "empty input" [||] (Pool.run p [||] (fun x -> x));
      Alcotest.(check (array int)) "singleton input" [| 9 |]
        (Pool.run p [| 3 |] (fun x -> x * x));
      for round = 1 to 5 do
        let out = Pool.run p (Array.init 8 Fun.id) (fun i -> i + round) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init 8 (fun i -> i + round))
          out
      done)

let test_resolve_jobs () =
  Alcotest.(check int) "positive passes through" 3 (Pool.resolve_jobs 3);
  Alcotest.(check int) "zero resolves to default"
    (Pool.default_jobs ()) (Pool.resolve_jobs 0);
  Alcotest.(check bool) "default is at least 1" true (Pool.default_jobs () >= 1)

(* [run_with] lends each worker one scratch value.  Every task records
   the domain it ran on into the scratch it was handed; a scratch seen by
   two domains would be shared across workers.  Results may not depend on
   the lending, so they match the sequential map for every jobs value. *)
let test_run_with_scratch () =
  let input = Array.init 64 Fun.id in
  let work x =
    let acc = ref 0 in
    for k = 1 to (64 - x) * 500 do
      acc := (!acc + k) land 0xFFFF
    done;
    ignore (Sys.opaque_identity !acc);
    (x * x) + 1
  in
  let expected = Array.map work input in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let out =
            Pool.run_with p ~scratch:(fun () -> ref []) input
              (fun seen x ->
                seen := (Domain.self () :> int) :: !seen;
                (work x, seen))
          in
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d results equal the plain map" jobs)
            expected (Array.map fst out);
          let scratches =
            Array.fold_left
              (fun acc (_, s) -> if List.memq s acc then acc else s :: acc)
              [] out
          in
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d at most one scratch per worker" jobs)
            true
            (List.length scratches <= jobs && List.length scratches >= 1);
          if jobs = 1 then
            Alcotest.(check int) "jobs=1 creates exactly one scratch" 1
              (List.length scratches);
          List.iter
            (fun s ->
              match !s with
              | [] -> Alcotest.fail "a lent scratch was never used"
              | d :: rest ->
                  if not (List.for_all (Int.equal d) rest) then
                    Alcotest.failf "jobs=%d: one scratch used by two domains" jobs)
            scratches))
    [ 1; 2; 4 ]

let suite =
  [
    Alcotest.test_case "jobs=1 is a plain map" `Quick test_sequential_jobs1;
    Alcotest.test_case "index order preserved under skew" `Quick test_order_preserved;
    Alcotest.test_case "jobs=N equals jobs=1" `Quick test_matches_sequential;
    Alcotest.test_case "lowest-index exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "reuse, empty and singleton batches" `Quick test_reuse_and_empty;
    Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
    Alcotest.test_case "run_with lends one scratch per worker" `Quick
      test_run_with_scratch;
  ]
