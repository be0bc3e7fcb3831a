(** Per-scheme invariant expectations: what disco-check may assert about
    each registered router.

    The catalog encodes the paper guarantees — and only those. Universal
    checks (paths are valid, stretch >= 1, state >= 0, determinism) apply
    to every scheme regardless of its spec; a spec only *adds* bounds.
    Stretch bounds marked [needs_coverage] hold deterministically when
    every node has a landmark in its vicinity (the §6 observation), so the
    runner gates them on that predicate rather than on "w.h.p.". *)

type t = {
  scheme : string;
  guaranteed_delivery : bool;
      (** must return a route for every reachable pair (false for the
          greedy schemes, BVR/VRR, whose failures are legal and counted) *)
  first_bound : float option;  (** first-packet worst-case stretch *)
  later_bound : float option;  (** post-handshake worst-case stretch *)
  needs_coverage : bool;
      (** stretch bounds apply only under landmark-in-every-vicinity *)
  skip_fallback_first : bool;
      (** first-packet bound waived on resolution-fallback pairs (the
          w.h.p. escape hatch of Theorem 1, observable via telemetry) *)
  state_bound : (n:int -> float) option;
      (** per-node routing-entry bound, slack included *)
  walk_exact : bool;
      (** the data-plane walk must reproduce the oracle's node sequence
          exactly. True for schemes whose compiled forward replays the
          oracle's decision procedure step for step (path vector, SEATTLE, BVR,
          VRR, TZ); false for the shortcut schemes (disco, nddisco, s4),
          whose walks may divert at a different-but-equivalent point —
          there the runner requires equal delivery verdicts and equal
          weighted length instead. *)
}

val sqrt_state_slack : float
(** Slack multiplier on the [Õ(sqrt n)] state bounds. Calibrated against
    seed sweeps (see DESIGN.md, "disco-check"): comfortably above the
    worst ratio observed on main across all families, low enough to catch
    a scheme whose state grows a family faster. *)

val sqrt_state_offset : float
(** Additive cushion on the same bounds: at disco-check sizes the landmark
    count is a non-negligible additive term that the multiplicative form
    under-approximates (worst at the [min_nodes] end). *)

val defaults : t list
(** One spec per registered scheme. *)

val find : string -> t
(** Spec for a scheme name; unknown names get a permissive spec (universal
    checks only). *)

val permissive : string -> t
