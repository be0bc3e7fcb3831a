(* The only module allowed to use Domain/Mutex/Condition (disco-lint L6):
   everything parallel in the tree goes through this pool, so the
   determinism argument (DESIGN.md §5d) has a single choke point.

   Shape: [create] spawns jobs-1 worker domains that block on a
   Mutex/Condition-protected queue of thunks; [run] enqueues one thunk per
   input index, then the calling domain drains the queue alongside the
   workers and finally waits for in-flight thunks to land. Results and
   exceptions are written to per-index slots (disjoint writes, no races);
   the completion counter is the only cross-domain coordination, and it is
   mutex-protected, which also publishes the slot writes to the caller. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  pending : (int -> unit) Queue.t;
  wake : Condition.t;  (* workers: work arrived or shutdown *)
  idle : Condition.t;  (* caller: a batch finished *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()
let resolve_jobs n = if n <= 0 then default_jobs () else n
let jobs t = t.jobs

let worker t slot =
  let rec loop () =
    Mutex.lock t.mutex;
    let rec take () =
      if t.stop then None
      else
        match Queue.take_opt t.pending with
        | Some _ as job -> job
        | None ->
            Condition.wait t.wake t.mutex;
            take ()
    in
    let job = take () in
    Mutex.unlock t.mutex;
    match job with
    | None -> ()
    | Some thunk ->
        thunk slot;
        loop ()
  in
  loop ()

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      pending = Queue.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      stop = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Shared lazy stores (vicinities, landmark trees, S4 balls) are filled
   from inside pool tasks, so their fill path needs the same mutex
   discipline as the queue; exposing the store from here keeps every lock
   in the tree behind this module (lint L6).  Keys are node ids, so the
   table is a plain array: a hit is one unlocked read (the slot holds
   either [empty] or a value whose fill is complete, since the only write
   to a slot stores a fully built value), and the lock guards only the
   scratch free list and the first-insert-wins publication.  Compute runs
   unlocked on a lent scratch value; a lost race converges on the winner's
   value, which is sound because compute is required to be deterministic
   in the key. *)
module Memo = struct
  type ('v, 's) t = {
    lock : Mutex.t;
    slots : 'v array;
    empty : 'v;
    scratch : unit -> 's;
    mutable free : 's list;  (* idle scratch values, under [lock] *)
    mutable filled : int;  (* under [lock] *)
  }

  let create n ~empty ~scratch =
    {
      lock = Mutex.create ();
      slots = Array.make n empty;
      empty;
      scratch;
      free = [];
      filled = 0;
    }

  let get m k = m.slots.(k)

  (* Lend an idle scratch value, or make one when every existing one is
     out; [give_back] returns it once the fill is done. *)
  let borrow m =
    Mutex.lock m.lock;
    let s =
      match m.free with
      | s :: rest ->
          m.free <- rest;
          Some s
      | [] -> None
    in
    Mutex.unlock m.lock;
    match s with Some s -> s | None -> m.scratch ()

  let give_back m s =
    Mutex.lock m.lock;
    m.free <- s :: m.free;
    Mutex.unlock m.lock

  let find_or_add m k compute =
    let hit = m.slots.(k) in
    if hit != m.empty then hit
    else begin
      let s = borrow m in
      let v = Fun.protect ~finally:(fun () -> give_back m s) (fun () -> compute s) in
      Mutex.lock m.lock;
      let winner = m.slots.(k) in
      if winner == m.empty then begin
        m.slots.(k) <- v;
        m.filled <- m.filled + 1
      end;
      Mutex.unlock m.lock;
      if winner == m.empty then v else winner
    end

  let length m =
    Mutex.lock m.lock;
    let n = m.filled in
    Mutex.unlock m.lock;
    n
end

(* One scratch value per worker slot, created on the worker's first task.
   Slot [w] is only ever touched by the domain holding slot [w], so the
   lazily filled array needs no lock. *)
let lend slots make w =
  match slots.(w) with
  | Some s -> s
  | None ->
      let s = make () in
      slots.(w) <- Some s;
      s

let run_with t ~scratch input f =
  let n = Array.length input in
  if t.jobs = 1 || n <= 1 then begin
    let slots = [| None |] in
    Array.map (fun x -> f (lend slots scratch 0) x) input
  end
  else begin
    let slots = Array.make t.jobs None in
    let results = Array.make n None in
    let errors = Array.make n None in
    let remaining = ref n in
    let task i w =
      (match f (lend slots scratch w) input.(i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e);
      Mutex.lock t.mutex;
      decr remaining;
      if !remaining = 0 then Condition.signal t.idle;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.add (task i) t.pending
    done;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    (* The calling domain is a worker too (slot 0), for the duration of the
       batch. *)
    let rec help () =
      Mutex.lock t.mutex;
      let job = Queue.take_opt t.pending in
      Mutex.unlock t.mutex;
      match job with
      | Some thunk ->
          thunk 0;
          help ()
      | None -> ()
    in
    help ();
    Mutex.lock t.mutex;
    while !remaining > 0 do
      Condition.wait t.idle t.mutex
    done;
    Mutex.unlock t.mutex;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map
      (function
        | Some v -> v
        | None -> invalid_arg "Pool.run: task produced no result")
      results
  end

let run t input f = run_with t ~scratch:ignore input (fun () x -> f x)
