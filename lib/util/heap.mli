(** Binary min-heap keyed by float priority, holding any value.

    The pending-event queue of the discrete event simulator. Each push
    allocates an entry, so allocation-free searches do not use it:
    Dijkstra's frontier is a flat indexed heap inside its workspace. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push h priority v] inserts [v] with the given priority. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element. Ties are broken by
    insertion order (earlier insertions first), which keeps simulations
    deterministic. *)

val peek : 'a t -> (float * 'a) option

val clear : 'a t -> unit
