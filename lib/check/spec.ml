type t = {
  scheme : string;
  guaranteed_delivery : bool;
  first_bound : float option;
  later_bound : float option;
  needs_coverage : bool;
  skip_fallback_first : bool;
  state_bound : (n:int -> float) option;
  walk_exact : bool;
}

(* Calibrated over `disco_check --seed 42 --cases 200` plus 1000-case
   sweeps at max-nodes 256 and a disco-sim state probe up to n = 1024:
   the worst observed ratio to sqrt(n log2 n) is ~4.3 at n = 1024 and
   ~5.4 at n = 64 (landmark density, an additive term, dominates small n —
   hence the constant offset). A scheme whose state grows a family faster
   overshoots this well inside disco-check's size range. *)
let sqrt_state_slack = 6.0
let sqrt_state_offset = 16.0

let sqrt_state ~n =
  let fn = float_of_int (max 2 n) in
  sqrt_state_offset +. (sqrt_state_slack *. sqrt (fn *. (log fn /. log 2.)))

let permissive scheme =
  {
    scheme;
    guaranteed_delivery = false;
    first_bound = None;
    later_bound = None;
    needs_coverage = false;
    skip_fallback_first = false;
    state_bound = None;
    walk_exact = false;
  }

let defaults =
  [
    (* Path vector is the stretch-1 reference: shortest paths, full tables. *)
    {
      scheme = "pathvector";
      guaranteed_delivery = true;
      first_bound = Some 1.0;
      later_bound = Some 1.0;
      needs_coverage = false;
      skip_fallback_first = false;
      state_bound = Some (fun ~n -> float_of_int (n - 1));
      walk_exact = true;
    };
    (* SEATTLE: first packet detours through the resolver (no worst-case
       bound); cached forwarding is shortest-path. *)
    {
      scheme = "seattle";
      guaranteed_delivery = true;
      first_bound = None;
      later_bound = Some 1.0;
      needs_coverage = false;
      skip_fallback_first = false;
      state_bound = None;
      walk_exact = true;
    };
    (* BVR and VRR are greedy/geographic: legal to fail, no stretch bound,
       but their data planes replay the oracle's decision procedure
       step for step, so the walks must match node for node. *)
    { (permissive "bvr") with scheme = "bvr"; walk_exact = true };
    { (permissive "vrr") with scheme = "vrr"; walk_exact = true };
    (* S4: worst-case stretch 3 (TZ) once the landmark is known; the first
       packet detours via the resolution database — unbounded (§5). *)
    {
      scheme = "s4";
      guaranteed_delivery = true;
      first_bound = None;
      later_bound = Some 3.0;
      needs_coverage = false;
      skip_fallback_first = false;
      state_bound = Some sqrt_state;
      walk_exact = false;
    };
    (* NDDisco, Theorem 2: first <= 5, later <= 3, deterministic under
       landmark-in-every-vicinity. *)
    {
      scheme = "nddisco";
      guaranteed_delivery = true;
      first_bound = Some 5.0;
      later_bound = Some 3.0;
      needs_coverage = true;
      skip_fallback_first = false;
      state_bound = Some sqrt_state;
      walk_exact = false;
    };
    (* Disco, Theorem 1: first <= 7 unless the pair fell back to global
       resolution (the w.h.p. clause), later <= 3. *)
    {
      scheme = "disco";
      guaranteed_delivery = true;
      first_bound = Some 7.0;
      later_bound = Some 3.0;
      needs_coverage = true;
      skip_fallback_first = true;
      state_bound = Some sqrt_state;
      walk_exact = false;
    };
    (* Thorup–Zwick with k = 2: worst-case stretch 2k - 1 = 3. *)
    {
      scheme = "tz";
      guaranteed_delivery = true;
      first_bound = Some 3.0;
      later_bound = Some 3.0;
      needs_coverage = false;
      skip_fallback_first = false;
      state_bound = Some sqrt_state;
      walk_exact = true;
    };
  ]

let find scheme =
  match List.find_opt (fun s -> String.equal s.scheme scheme) defaults with
  | Some s -> s
  | None -> permissive scheme
