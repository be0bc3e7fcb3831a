(** Run a registered scheme's data plane: the one packet walker behind
    the engine, every figure, disco-check and [disco-sim trace].

    A walk compiles the scheme once ({!Protocol.ROUTER.compile}), then per
    flow primes it ([fprime]), loads the source's header into a scratch
    packet ({!Disco_core.Dataplane.load_packet}) and runs
    {!Disco_core.Dataplane.fast_walk} under the scheme's TTL budget.  The
    walk is recorded on the telemetry (walk, delivery and hop counters,
    plus a resolution fallback when the packet's [pfallback] flag is
    raised).  Results are read back off the {!scratch}.  The closed-form
    route computations remain available as
    {!Protocol.ROUTER.oracle_first}/[oracle_later]; disco-check diffs the
    two. *)

type scratch
(** One walker's reusable packet and hop trail.  Keep one per worker
    ({!Disco_util.Pool.run_with}), never one per flow or task. *)

val scratch : Disco_graph.Graph.t -> scratch

type t
(** A scheme's compiled data plane over one router handle. *)

val compile :
  ?plan:Disco_core.Dataplane.fast_plan ->
  (module Protocol.ROUTER with type t = 'a) ->
  'a ->
  graph:Disco_graph.Graph.t ->
  t
(** Compile the handle, or reuse [plan] (compiled from the handle this one
    was forked from: plans are safe to share across domains). *)

(** Which header the source emits. *)
type kind =
  | First  (** a first packet toward a flat name, lookup detours included *)
  | Later  (** once the first exchange taught the source its cache *)

val run :
  t -> scratch -> tel:Disco_util.Telemetry.t -> kind -> src:int -> dst:int -> unit
(** Walk one packet; read the outcome with the accessors below. *)

val delivered : scratch -> bool

val fell_back : scratch -> bool
(** Did the walk detour through the resolution database (Disco)? *)

val drop : scratch -> int
(** Why the walk ended undelivered: a {!Disco_core.Dataplane} drop code. *)

val path : scratch -> int list
(** The nodes traversed, source first. *)

val length : Disco_graph.Graph.t -> scratch -> float
(** Weighted length of {!path}, summed in path order — exactly
    [Dijkstra.path_length] of it, without building the list. *)

val route :
  t ->
  scratch ->
  tel:Disco_util.Telemetry.t ->
  kind ->
  src:int ->
  dst:int ->
  int list option
(** {!run}, then the walked path when delivered, [None] otherwise. *)

(** {1 Traces}

    Cold-path instrumentation: the scheme's step is wrapped so every
    decision also records a typed view of the packet right after it
    ({!Disco_core.Dataplane.view}). *)

type decision = {
  at : int;  (** the deciding node *)
  verdict : int;
      (** the next hop ([>= 0]) or a {!Disco_core.Dataplane} verdict code *)
  header : Disco_core.Dataplane.header;  (** the header after the decision *)
  bytes : int;
      (** [header]'s wire size as carried at [at]
          ({!Disco_core.Dataplane.byte_size}) *)
  resolved : bool;  (** this decision detoured to the resolution database *)
}

type trace = {
  path : int list;  (** nodes traversed, source first *)
  decisions : decision list;  (** one per decision, in order *)
  delivered : bool;
  drop : int;  (** a {!Disco_core.Dataplane} drop code *)
  hops : int;
  header_bytes_max : int;  (** largest header carried on any hop *)
  header_bytes_total : int;
      (** header bytes summed over every hop taken; a packet delivered at
          its source counts its initial header *)
}

val trace :
  t -> scratch -> tel:Disco_util.Telemetry.t -> kind -> src:int -> dst:int -> trace
(** {!run} with every decision recorded; same walk, same telemetry. *)

val pp_trace : Format.formatter -> trace -> unit
