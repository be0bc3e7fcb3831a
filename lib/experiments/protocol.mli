(** The routing-scheme abstraction the whole evaluation runs on.

    Krioukov et al. frame compact-routing schemes as one family differing
    only in their state/stretch trade-off; [ROUTER] is that family as a
    module type. Every scheme in the repo — Disco, NDDisco, S4, VRR, BVR,
    SEATTLE, the TZ hierarchy and path vector — is registered here as a
    first-class module (see {!module:Routers}), and the sampled-pairs
    engine ({!module:Engine}), the figures, the bench harness and
    [disco-sim] all select schemes by registry name.

    A scheme is one data plane plus an independent check of it:

    - the {e data plane} — the headers sources emit
      ({!val:ROUTER.first_header}/{!val:ROUTER.later_header}) and one
      compiled per-hop forward ({!val:ROUTER.compile}), node-local state
      flattened into arrays and walked by
      {!Disco_core.Dataplane.fast_walk}.  {!module:Walk} runs it for the
      engine, every figure, disco-check and [disco-sim trace]; the
      throughput bench times it.
    - two {e oracles} — {!val:ROUTER.oracle_first}/{!val:ROUTER.oracle_later},
      the closed-form route computations from the simulator's global view.
      They exist to check the data plane (disco-check's walk ≡ oracle
      differential), not to produce results — except where walking would
      force state that does not fit in memory (the scaling bench at
      n ≥ 10^5, whose numbers the walk ≡ oracle contract makes equal).

    Adding a scheme is a one-registration change:
    + implement [ROUTER] (usually a thin adapter over an existing module),
    + [Protocol.register (module My_router)] in {!module:Routers},
    + done — [test_router_registry] picks it up and enforces the contract.
*)

module type ROUTER = sig
  type t

  val name : string
  (** Registry key, e.g. ["disco"]; lowercase, unique. *)

  val flat_names : string
  (** How the scheme supports flat names (the fig1 column), e.g.
      ["yes, stretch-bounded"] or ["lookup detour"]. *)

  val build : Testbed.t -> t
  (** Converged state over the testbed's graph. Adapters reuse the
      testbed's shared instances (same landmark draw across schemes) and
      its derived RNG streams, so builds are deterministic per seed. *)

  val ttl_factor : int
  (** Data-plane TTL budget as a multiple of [n] — a generous multiple of
      the worst-case route length (4 for most schemes; 8 for VRR, whose
      corridors wander). The walker drops the packet when it is spent. *)

  val first_header :
    t -> tel:Disco_util.Telemetry.t -> src:int -> dst:int ->
    Disco_core.Dataplane.header
  (** The header the source emits for the first packet of a flow toward a
      flat name, built from source-local state (plus the hash of the name;
      lookup detours are encoded in the header's phase/waypoint, not
      precomputed paths the source couldn't know). *)

  val later_header :
    t -> tel:Disco_util.Telemetry.t -> src:int -> dst:int ->
    Disco_core.Dataplane.header
  (** The header once the source caches whatever the first exchange taught
      it (address, handshake path, location). Schemes without a handshake
      emit the same header as {!first_header}. *)

  val oracle_first :
    t -> tel:Disco_util.Telemetry.t -> src:int -> dst:int -> int list option
  (** The closed-form first-packet route from the global view. [None]
      means the scheme cannot deliver (e.g. BVR stuck in a local minimum).
      Must agree with walking the compiled forward from {!first_header} on
      delivery and weighted length (node sequences may differ only for schemes
      whose shortcutting can divert at several equivalent points). *)

  val oracle_later :
    t -> tel:Disco_util.Telemetry.t -> src:int -> dst:int -> int list option
  (** Same contract versus {!later_header} walks. *)

  val state_entries : t -> int -> int
  (** Data-plane routing-table entries at one node, per the paper's
      accounting (§5.2). Never negative. *)

  val state_bytes : t -> int -> float
  (** Exact bytes of one node's routing state as actually held in the
      packed representations (CSR rows, distance slabs, Othello FIB
      shares) — measured storage, not entries × a modelled name size.
      The [state] figure and the scaling bench plot this directly. *)

  val fork : t -> t
  (** A query handle that can emit headers and run oracles concurrently
      with the original from another domain: shared converged state is
      immutable and may alias, but any query-time mutable state must
      either be private to the returned handle or live in a
      {!Disco_util.Pool.Memo} store.  The lazily built routing state of
      Disco, NDDisco, S4, SEATTLE and TZ (vicinity views, per-root trees,
      S4 balls) is in such stores, shared on purpose — their cross-pair
      amortization is the point — so fork is the identity for every
      adapter except path vector.  Path vector caches the one SSSP tree of
      the source it last served, plus a workspace; a store would have to
      keep a tree per source, and fig10 sends a flow from every node, so
      its fork hands out a fresh cache and workspace instead.  Walker
      state (the packet and its hop trail) lives in {!Walk.scratch}, never
      on [t].  Forked handles feed the parallel engine ({!Engine.run});
      [state_entries] is only called on the original. *)

  val compile : t -> Disco_core.Dataplane.fast_plan
  (** The scheme's data plane: [fstep] reads node-local state as flat
      arrays and the shared stores in place (lock-free reads of filled
      entries), with no allocation per hop
      ({!Disco_core.Dataplane.fast_walk} runs it).  [fprime ~src ~dst]
      fills the store entries the flow's decisions read at setup time, so
      [compile] plus [fprime] is all a walk needs; nothing is copied into
      the plan, an entry still unfilled reads as a protocol-error verdict,
      and the plan may be shared across domains (fills go through the
      stores' first-insert-wins publication). *)
end

type packed = (module ROUTER)

val name_of : packed -> string

val register : packed -> unit
(** Append to the registry.
    @raise Invalid_argument on a duplicate name. *)

val all : unit -> packed list
(** Registered routers, in registration order. Prefer
    {!Routers.all}, which guarantees the built-in schemes are loaded. *)

val names : unit -> string list
val find : string -> packed option

val find_exn : string -> packed
(** @raise Invalid_argument with the known names on a miss. *)
