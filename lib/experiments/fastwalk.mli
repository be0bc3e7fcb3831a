(** Batched fast-path throughput engine ([bench --figure throughput]).

    Pre-encodes every sampled flow's header into one wire arena, compiles
    each scheme to its zero-alloc face ({!Protocol.ROUTER.compile}) and
    times nothing but {!Disco_core.Dataplane.decode_into} +
    {!Disco_core.Dataplane.fast_walk} over a single preallocated scratch
    packet.  [Gc.minor_words] around the timed loop is the runtime
    counterpart of disco-lint's L7 proof: [words_per_hop] must sit at
    ~0.  Correctness lives in disco-check's walk≡oracle differential;
    this figure only measures the rate. *)

type row = {
  scheme : string;
  kind : string;  (** ["first"] (resolving) or ["later"] (converged) *)
  flows : int;  (** distinct pre-encoded headers in the batch *)
  packets : int;  (** [flows * reps] routed inside the timed loop *)
  hops : int;
  delivered : int;
  seconds : float;
  minor_words : float;  (** allocation across the whole timed loop *)
  hops_per_sec : float;
  packets_per_sec : float;
  words_per_hop : float;
}

val measure : seed:int -> n:int -> flows:int -> reps:int -> row list
(** Build a geometric testbed, sample [flows] deterministic pairs and
    measure every registered scheme for first and later headers — two
    rows per scheme, registration order. *)

val json_of_rows :
  seed:int -> n:int -> flows:int -> reps:int -> row list -> string
(** The [BENCH_throughput.json] snapshot (hand-built). *)
