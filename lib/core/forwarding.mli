(** Disco's data plane: the compiled per-hop forwards for Disco and
    NDDisco, and the headers their sources emit.

    {!Disco.route_first}/{!Disco.route_later} compute routes from the
    static simulator's global view; this module {e executes} a packet hop
    by hop using only state the forwarding node actually holds — its
    vicinity table, its landmark routes, its sloppy-group address store —
    exactly as a router would. The walk and the oracle must agree on
    delivery and on path length (tested, and enforced by disco-check's
    walk≡oracle differential), which is the strongest internal check that
    the protocol is genuinely distributed: no step consults information
    the current node wouldn't have.

    A first packet toward a flat name goes through phases:

    + at the source ({!Dataplane.Seek}): classify — deliver locally,
      source-route if the address is known, else head for the best group
      proxy in the vicinity;
    + at the proxy: look the name up in the group store and rewrite the
      packet with the destination's address ({!Dataplane.Carry}), or fall
      back to the resolution database (the packet's [pfallback] flag);
    + toward the landmark ({!Dataplane.Steer}): follow the path-vector
      route to [l_t];
    + from the landmark: consume the address's forwarding labels (the
      explicit route);
    + any node on the way that knows a direct route to the destination
      diverts ("to-destination" shortcutting); the destination answers
      with the exact path when the source is in {e its} vicinity (the
      handshake), which is where later packets' stretch-3 routes come
      from ({!later_header}). *)

val ttl_factor : int
(** TTL budget as a multiple of [n] (Disco uses [4 * n] decisions). *)

val first_header : Disco.t -> src:int -> dst:int -> Dataplane.header
(** The header a source emits for a first packet: just the flat name
    ({!Dataplane.Seek}). *)

val later_header : Disco.t -> src:int -> dst:int -> Dataplane.header
(** The header once the source holds the destination's address (and the
    handshake path when the destination sent one): an explicit
    {!Dataplane.Carry} route, falling back to a first-packet header when
    the source holds nothing. *)

val deliver_check : Disco.t -> src:int -> dst:int -> int list option
(** The handshake: the exact path [src; ...; dst] the destination reveals
    when [src] is in its vicinity, [None] otherwise (and at [src = dst]). *)

(** {2 NDDisco}

    NDDisco's contract assumes the source already holds the destination's
    address, so its data plane is the pure label-route machine: an
    explicit {!Dataplane.Carry} header from the source, with
    to-destination shortcutting at every hop. *)

val first_header_nd : Nddisco.t -> src:int -> dst:int -> Dataplane.header
val later_header_nd : Nddisco.t -> src:int -> dst:int -> Dataplane.header

(** {2 Compiled forwards}

    Vicinity views read through their direct-index slots, landmark trees
    as parent rows primed per flow, name hashes as unsigned 32-bit
    halves: {!fast_step} is array indexing only. *)

type fast

val compile : Disco.t -> fast
(** Forces every vicinity view ({!Vicinity.slots}). *)

val compile_nd : Nddisco.t -> fast

val fast_prime : fast -> src:int -> dst:int -> unit
(** Force the landmark parent rows a flow to [dst] can touch: the
    destination itself when it is a landmark, else its address landmark
    and its resolution owner. *)

val fast_prime_nd : fast -> src:int -> dst:int -> unit

val fast_step : fast -> Dataplane.packet -> int -> int
(** One zero-alloc Disco decision (Seek/Steer/Carry machine); raises the
    packet's [pfallback] flag on a resolution-database detour. *)

val fast_step_nd : fast -> Dataplane.packet -> int -> int
(** One zero-alloc NDDisco decision (pure Carry machine). *)
