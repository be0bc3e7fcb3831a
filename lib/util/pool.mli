(** A fixed-size domain pool: the one place in the tree allowed to touch
    [Domain]/[Mutex]/[Condition] (disco-lint rule L6).

    The pool exists so the experiment engine can fan measurement tasks out
    over cores without giving up bit-reproducibility: {!run} preserves
    index order, propagates the lowest-index exception, and makes no
    scheduling decision observable to the caller. Determinism therefore
    reduces to the caller's task bodies being independent — which the
    engine guarantees by giving each task private accumulators and a
    derived RNG stream (see DESIGN.md §5d).

    No dependency beyond the stdlib: workers are [Domain.spawn]ed threads
    draining a [Mutex]/[Condition]-protected queue of thunks. *)

type t
(** A pool of worker domains. A pool with [jobs = 1] spawns no domains and
    runs every task inline, so single-job runs are exactly the sequential
    code path. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    available to this process. *)

val resolve_jobs : int -> int
(** Normalize a [--jobs] request: values [<= 0] mean "auto" (one worker
    per recommended domain); anything else is taken as given, clamped to
    at least 1. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [max 1 jobs - 1] worker domains (the calling
    domain also executes tasks during {!run}, so [jobs] is the total
    parallelism). *)

val jobs : t -> int
(** The parallelism this pool was created with. *)

val run : t -> 'a array -> ('a -> 'b) -> 'b array
(** [run t input f] applies [f] to every element and returns the results
    in index order, regardless of which domain computed what. All tasks
    are attempted even if one raises; afterwards the exception raised by
    the lowest failing index is re-raised in the caller, so failure
    reporting does not depend on scheduling. Not reentrant: [f] must not
    itself call {!run} on the same pool. With [jobs t = 1] (or fewer than
    two tasks) this is an ordinary sequential loop. *)

val run_with : t -> scratch:(unit -> 's) -> 'a array -> ('s -> 'a -> 'b) -> 'b array
(** {!run}, lending every worker one scratch value: [f s x] receives the
    value belonging to the worker that runs it, created with [scratch ()]
    on that worker's first task of the batch and reused for the rest.
    No scratch value is ever seen by two workers, so task bodies may
    mutate theirs freely (a Dijkstra workspace, a packet buffer); a
    sequential run creates exactly one.  Results must not depend on the
    scratch's prior contents, or they would depend on scheduling. *)

val shutdown : t -> unit
(** Join the workers. Idempotent; the pool must not be used afterwards. *)

val with_pool : jobs:int -> (t -> 'b) -> 'b
(** [create], apply, and [shutdown] (also on exception). *)

(** A lazily filled store keyed by node id — the one shared-mutable-state
    helper task bodies may use (anything built on raw [Mutex]/[Atomic]
    outside this module is banned by lint L6).

    Slot [k] of a store over [n] keys starts as [empty] and is filled at
    most once.  A filled slot is read with no lock ({!get}, and the hit
    path of {!find_or_add}), so compiled data planes read the store in
    place.  A fill runs outside the lock on a scratch value (a Dijkstra
    workspace, say) lent from a small free list; a store creates scratch
    values only when every existing one is lent out, so at most one per
    concurrent fill ever exists.

    The compute function passed to {!find_or_add} MUST be a deterministic
    function of the key, and must not return [empty] itself (slots are
    tested against it with [==]): when two domains miss on the same key
    concurrently, both compute and the first insertion wins, so results
    stay independent of scheduling only because the loser's value is
    equal. *)
module Memo : sig
  type ('v, 's) t
  (** A store of ['v] values whose fills borrow ['s] scratch. *)

  val create : int -> empty:'v -> scratch:(unit -> 's) -> ('v, 's) t
  (** [create n ~empty ~scratch]: keys [0 .. n-1], every slot [empty]. *)

  val get : ('v, 's) t -> int -> 'v
  (** The value in slot [k], or [empty] when it is unfilled.  One array
      read: no lock, no allocation, never fills. *)

  val find_or_add : ('v, 's) t -> int -> ('s -> 'v) -> 'v
  (** [find_or_add t k compute] returns slot [k], filling it with
      [compute s] on a miss, where [s] is a scratch value no other fill is
      using.  [compute] may be called more than once across domains for
      the same key (first insert wins); it runs without the lock held. *)

  val length : ('v, 's) t -> int
  (** Number of filled slots. *)
end
