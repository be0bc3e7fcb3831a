(* Machine-speed probe.

   This machine's speed drifts by a third over seconds to minutes as
   other tenants' load comes and goes.  The probe is a fixed piece of
   work — a pointer chase through a 128 MB random cycle, far past any
   cache, as the forwarding tables are, then a short integer hash loop —
   that no program change can touch.  Timed interleaved with
   the workload, its mean time measures the machine's speed over the same
   stretch, and the untraced run's times are scaled to a machine on which
   the probe takes [ref_s]. *)

let ref_s = 0.05
let chase_len = 1 lsl 24
let chase_steps = 250_000
let hash_steps = 1_000_000

(* Sattolo's algorithm from a fixed LCG: one cycle through every slot. *)
let cycle =
  lazy
    (let a = Array.init chase_len Fun.id in
     let s = ref 0x2545F491 in
     for i = chase_len - 1 downto 1 do
       s := ((!s * 1103515245) + 12345) land 0x3fffffff;
       let j = !s mod i in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     a)

let sink = ref 0

(* Build the cycle outside any timed region. *)
let prepare () = ignore (Lazy.force cycle : int array)

let run () =
  let a = Lazy.force cycle in
  let x = ref 0 in
  for _ = 1 to chase_steps do
    x := Array.unsafe_get a !x
  done;
  let h = ref !x in
  for i = 1 to hash_steps do
    h := ((!h * 0x5bd1e995) + i) land 0x3fffffff
  done;
  sink := !h
