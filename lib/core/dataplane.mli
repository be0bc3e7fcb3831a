(** Scheme-agnostic hop-by-hop data plane.

    Every routing scheme in the repo answers one question per hop: given
    the packet and the state the current node holds, what happens next?
    Each scheme answers it with one {e compiled forward} ({!fast_plan}):
    node-local state flattened into arrays, and a per-hop step that reads
    and rewrites one preallocated {!packet}.  {!fast_walk} runs that step
    hop by hop; it is the only walker in the repo.  Figures, disco-check
    and traces all run it, and each scheme's closed-form oracle checks it.

    The walker enforces the two mechanical halves of the "local state
    only" contract: a decision may only move the packet across a real link
    of the graph (a protocol-error drop otherwise), and anything the
    deciding node wants remembered across hops must be written into the
    packet (the walker threads no other state).

    The typed {!header} is the source and wire form: sources emit it,
    {!load_packet} or the codec ({!encode_header}/{!decode_into}) put it
    in the packet, and {!view} reads the packet back as a header for
    traces and per-hop byte accounting ({!byte_size}). *)

module Graph = Disco_graph.Graph

(** What kind of in-flight processing the header is asking for. Each
    scheme interprets the phases it uses; the walker never inspects them. *)
type phase =
  | Seek of { tried_proxy : bool }
      (** the packet carries only the destination's flat name (Disco) *)
  | Steer of { tried_proxy : bool }
      (** riding a leg toward {!field-waypoint}; when the label list runs
          out the waypoint node decides what happens next *)
  | Carry  (** consuming an explicit label route toward the destination *)
  | Greedy  (** coordinate/ring descent (BVR, VRR) *)
  | Fallback  (** BVR tree descent after a local minimum *)

type header = {
  dst : int;  (** destination (its flat name / coordinate stands for it) *)
  phase : phase;
  labels : int list;  (** remaining explicit route, next hop first *)
  waypoint : int;  (** current intermediate target; -1 = none *)
  anchor : int;  (** scheme anchor (VRR committed endpoint, BVR beacon
                     tree index); -1 = none *)
  fbound : float;  (** BVR fallback re-entry bound; [infinity] = none *)
  vbound : Disco_hash.Hash_space.id;
      (** VRR monotone virtual-distance bound; [Int64.minus_one] (max
          unsigned) = no bound yet *)
  extra_bytes : int;
      (** fixed scheme payload carried every hop (BVR coordinate, VRR
          virtual id), counted by {!byte_size} *)
}

val plain : dst:int -> phase -> header
(** A header with no labels, waypoint, anchor or bounds. *)

val byte_size : ?name_bytes:int -> Graph.t -> at:int -> header -> int
(** Wire size of the header as carried at node [at]: the destination's
    self-certifying name ([name_bytes], default 20), the packed
    neighbor-rank label bits of the remaining explicit route (§4.2), one
    node id each for waypoint and anchor when present, 4 bytes for a
    finite fallback bound, and the scheme's [extra_bytes]. *)

(** {1 The packet and its compiled forwards}

    Headers are pre-encoded into reusable [Bytes] or loaded straight from
    the typed form, in-flight state lives in one preallocated {!packet},
    and each scheme's compiled forward ({!fast_plan}) is array indexing
    only.  The L7 lint and [bench --figure throughput] hold this path to
    zero allocation per hop. *)

(** {2 Phase codes} — {!phase} as a small int on the wire. *)

val mode_seek : int
val mode_seek_tried : int
val mode_steer : int
val mode_steer_tried : int
val mode_carry : int
val mode_greedy : int
val mode_fallback : int
val mode_of_phase : phase -> int

val phase_of_mode : int -> phase
(** @raise Invalid_argument outside [0..6]. *)

(** {2 Verdicts} — a compiled forward returns the next hop ([>= 0]) or: *)

val fast_deliver : int
val fast_no_route : int
val fast_protocol : int

(** {2 Drop codes} — why a fast walk ended ({!field-pdrop}). *)

val drop_none : int
val drop_ttl : int
val drop_no_route : int
val drop_protocol : int
val drop_to_string : int -> string

(** The reusable in-flight packet.  [proute.(proute_pos..proute_end)] is
    the remaining explicit route as node ids; [pfs] is float scratch for
    the compiled forwards with the BVR fallback bound at {!fs_fbound};
    [pis] is int scratch; the VRR virtual bound is carried as two unsigned
    32-bit halves ([pvb_hi], [pvb_lo]) so the hop loop never boxes an
    Int64.  After a {!fast_walk}: [phops], [pdelivered], [pdrop], and
    [pfallback], which a scheme raises when the walk detoured through its
    resolution database (Disco). *)
type packet = {
  mutable pdst : int;
  mutable pmode : int;
  mutable pway : int;
  mutable panchor : int;
  mutable pvb_hi : int;
  mutable pvb_lo : int;
  mutable pextra : int;
  mutable proute_pos : int;
  mutable proute_end : int;
  mutable phops : int;
  mutable pdelivered : bool;
  mutable pdrop : int;
  mutable pfallback : bool;
  proute : int array;
  pfs : float array;
  pis : int array;
}

val fs_fbound : int
(** [pfs] slot holding the BVR fallback re-entry bound. *)

val packet_create : Graph.t -> packet
(** A scratch packet sized for [g] (route capacity [2n + 8]). *)

(** {2 Route-window helpers} (hot; used by the compiled forwards) *)

val route_len : packet -> int
val route_next : packet -> int
(** Consume and return the next route label (node id). *)

val route_fill_up : packet -> int array -> int -> int -> int
(** [route_fill_up pkt parents u root]: load the labels of the tree path
    [u ~> root] ([parents] pointing rootward), i.e.
    [parents.(u); ...; root].  Returns the label count, or -1 on a broken
    parent chain (route window untouched). *)

val route_chain_ok : int array -> int -> int -> bool
(** [route_chain_ok parents u root]: does the parent chain from [u] reach
    [root]?  Probe before a fill that would replace a live route — the
    fills scribble over [proute] as they walk. *)

val route_fill_down : packet -> int array -> int -> int -> int
(** [route_fill_down pkt parents root v]: load the labels of the descent
    [root ~> v], i.e. [child-of-root; ...; v].  Returns the label count,
    or -1 on a broken chain. *)

(** {2 Wire codec} — fixed 33-byte header, then the explicit route as
    packed neighbor-rank bits (the same §4.2 label accounting as
    {!byte_size}).  Encoding is setup-time and may allocate;
    {!decode_into} is the per-flow hot entry and is allocation-free. *)

val header_fixed_bytes : int

val encoded_size : Graph.t -> src:int -> header -> int
(** Bytes {!encode_header} will write for [h] emitted at [src]. *)

val encode_header : Graph.t -> src:int -> header -> Bytes.t -> pos:int -> int
(** Encode [h] at [buf.(pos..)]; returns the encoded size.
    @raise Invalid_argument on overflow or a label that is not a neighbor
    of the node consuming it. *)

val decode_into : Graph.t -> packet -> Bytes.t -> pos:int -> src:int -> unit
(** Rehydrate [pkt] from wire bytes (allocation-free); [src] resolves the
    neighbor-rank labels back to node ids and the walk counters and
    [pfallback] reset. *)

val decode_header : Graph.t -> src:int -> Bytes.t -> pos:int -> header
(** Typed reconstruction of an encoded header (round-trip tests). *)

val load_packet : packet -> header -> unit
(** Load [pkt] straight from a typed header, skipping the wire; the walk
    counters and [pfallback] reset. *)

val view : packet -> header
(** The typed header [pkt] carries right now (the inverse of
    {!load_packet}): read-only, allocating, for traces and byte
    accounting. *)

val float_of_bits_hl : int -> int -> float
(** Exact IEEE-754 double from two unsigned 32-bit halves, without boxing
    an Int64 (exposed for the codec tests). *)

(** {2 The walker} *)

(** A scheme's compiled face: [fstep pkt u] is the zero-alloc per-hop
    decision; [fprime ~src ~dst] forces lazily-built node state for a
    flow at setup time so the hop loop never fills a cache. *)
type fast_plan = {
  fstep : packet -> int -> int;
  fprime : src:int -> dst:int -> unit;
}

val fast_walk :
  Graph.t ->
  step:(packet -> int -> int) ->
  packet ->
  src:int ->
  ttl:int ->
  trail:int array ->
  unit
(** Route one loaded packet from [src]: TTL counts decisions; a next hop
    must be a real link; Deliver away from the destination is a protocol
    error; at [src = dst] the scheme decides once.  No loop detection: an
    in-place cycle runs to TTL.  [trail] needs [ttl + 1] slots;
    [trail.(0..phops)] is the hop sequence.  Results land in [pkt]:
    [pdelivered], [pdrop], [phops]. *)
