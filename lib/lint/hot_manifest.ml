(* The checked-in hot-path manifest for the typed pass (rules L7/L9).

   A function is "hot" if it carries a [@hot] attribute at its binding or if
   its qualified name is listed here.  The manifest exists so the fast-path
   surface is reviewable in one place and so renaming a hot function without
   updating the discipline is an analyzer error (rule H0: every entry must
   resolve to a definition in the loaded .cmt set).

   Names are written the way a caller writes them ("Disco_core.Forwarding
   .fast_step"); [key] folds dune's wrapped-module mangling ("Disco_core__
   Forwarding.fast_step") onto the same string so manifest entries, resolved
   typedtree paths and analyzer def keys all compare equal. *)

(* One entry per registered scheme: the registry name and the compiled
   forward behind [Protocol.ROUTER.compile] — the one data plane that
   scheme executes per hop.  These admit no per-hop allocation waivers:
   L7 findings here are build breaks.  test_lint_typed pins this list
   against Disco_experiments.Routers.names (). *)
let fast_of_scheme =
  [
    ("disco", "Disco_core.Forwarding.fast_step");
    ("nddisco", "Disco_core.Forwarding.fast_step_nd");
    ("s4", "Disco_baselines.S4.fast_step");
    ("vrr", "Disco_baselines.Vrr.fast_step");
    ("bvr", "Disco_baselines.Bvr.fast_step");
    ("seattle", "Disco_baselines.Seattle.fast_step");
    ("tz", "Disco_baselines.Tz_hierarchy.fast_step");
    ("pathvector", "Disco_experiments.Routers.Pathvector_router.fast_step");
  ]

(* Hot functions that are not a scheme forward: the hop-by-hop walker, the
   name digests, and the CSR accessors every per-hop decision touches. *)
let extras =
  [
    "Disco_core.Dataplane.fast_walk";
    "Disco_core.Dataplane.decode_into";
    "Disco_graph.Graph.neighbor_at";
    "Disco_hash.Fnv.hash";
    "Disco_hash.Fnv.hash_with_seed";
    "Disco_hash.Sha256.digest";
    "Disco_hash.Hash_space.compare_unsigned";
    "Disco_hash.Hash_space.ring_distance";
    "Disco_graph.Graph.n";
    "Disco_graph.Graph.degree";
    "Disco_graph.Graph.has_edge";
    "Disco_util.Bits.width_for";
    "Disco_core.Packed.Othello.query";
    "Disco_core.Packed.Csr.find_sorted";
  ]

(* Entry points whose function arguments run on pool domains (rule L8).
   Closure literals or named functions passed at a call of one of these are
   the seeds of the domain-escape reachability check. *)
let task_apis =
  [
    "Disco_util.Pool.run";
    "Disco_util.Pool.run_with";
    "Disco_experiments.Engine.run";
    "Disco_experiments.Engine.map_groups";
    "Disco_experiments.Engine.map_pairs";
    "Disco_experiments.Engine.sample_pairs";
  ]

(* Fold "A__B.x" (dune wrapped-library mangling) and "A.B.x" (source syntax)
   onto one comparison key. *)
let key name =
  let buf = Buffer.create (String.length name) in
  let n = String.length name in
  let rec go i =
    if i >= n then ()
    else if
      i + 1 < n
      && Char.equal name.[i] '_'
      && Char.equal name.[i + 1] '_'
      && i > 0
      && not (Char.equal name.[i - 1] '.')
    then begin
      Buffer.add_char buf '.';
      go (i + 2)
    end
    else begin
      Buffer.add_char buf name.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let hot_names () = extras @ List.map snd fast_of_scheme
let hot_keys () = List.map key (hot_names ())
let task_api_keys () = List.map key task_apis
