(** Execute one scenario against every router and collect invariant
    violations.

    For each scheme the runner builds converged state over the scenario's
    testbed, measures the scenario's workload two ways — the closed-form
    oracle routes and hop-by-hop walks of its compiled data plane — and
    checks:

    - every returned route is a real path from src to dst in the graph;
    - delivery, for schemes that guarantee it (the graph is connected);
    - stretch against a full-Dijkstra oracle: never below 1, and within
      the scheme's bound whenever its preconditions hold (coverage for
      Disco/NDDisco, non-fallback pairs for Disco's first packet);
    - walk ≡ oracle: the walk of the scheme's compiled data plane
      ({!Disco_experiments.Walk}) and the oracle agree on the delivery
      verdict; delivered walks reproduce the oracle's node sequence
      ({!Spec.t.walk_exact}) or its weighted length (the shortcut
      schemes); a protocol-error drop — non-neighbor hop, misdelivery,
      refused header — is always a violation. The walker itself enforces
      TTL-bounded progress over real links, and the compiled forward sees
      nothing but the packet and the deciding node's tables;
    - per-node state within the scheme's bound, never negative;
    - bit-exact determinism: a second build from the same scenario must
      reproduce the topology, every route, every walk, every state table
      and the full telemetry snapshot (including the walk counters);
    - the differential invariant that Disco's post-handshake routes equal
      NDDisco's (Disco §4.3 delegates forwarding to NDDisco over its own
      addresses);
    - landmark-churn hysteresis: a size schedule confined to a
      sub-factor-2 band must produce zero status flips.

    [routers] and [spec_of] default to the global registry and
    {!Spec.find}; tests override them to check a deliberately broken
    router without polluting the registry. *)

type outcome = {
  n : int;  (** actual node count of the materialized graph *)
  pairs_checked : int;
  schemes : string list;  (** schemes that ran, in order *)
  route_failures : int;  (** legal [None] routes on non-guaranteed schemes *)
  violations : Violation.t list;
}

val run :
  ?routers:Disco_experiments.Protocol.packed list ->
  ?spec_of:(string -> Spec.t) ->
  Scenario.t ->
  outcome

val failed : outcome -> bool

val coverage : Disco_core.Nddisco.t -> bool
(** Landmark-in-every-vicinity: the precondition under which the Disco and
    NDDisco stretch theorems hold deterministically (a node that is itself
    a landmark counts as covered). *)
