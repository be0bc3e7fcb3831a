(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own code around each call into
   a layer's public functions, never inside the program.  A disabled
   recorder runs the thunk and nothing else, so the untraced run pays one
   branch per layer call.  Spans are kept in memory and written once, at
   the end, as Chrome trace-event JSON (Perfetto and about:tracing read
   it). *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 at the top level *)
  t0 : float;
  t1 : float;
  words : float;  (* words allocated by the calling domain inside the span *)
}

type t = {
  on : bool;
  origin : float;
  mutable next : int;
  mutable stack : int list;  (* open spans, innermost first *)
  mutable spans : span list;  (* finished, newest first *)
}

let now = Unix.gettimeofday
let create ~on = { on; origin = now (); next = 0; stack = []; spans = [] }
let enabled t = t.on
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let record t name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let w0 = allocated_words () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      t.stack <- List.tl t.stack;
      t.spans <-
        { id; name; parent; t0; t1; words = allocated_words () -. w0 }
        :: t.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let spans t = List.rev t.spans

(* A span's self time is its duration minus the time its children cover
   (children of one parent never overlap: spans nest on one domain). *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0))
      end)
    t.spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      (s, s.t1 -. s.t0 -. covered))
    (spans t)

(* Self seconds and allocated words summed over every span of [name]. *)
let totals t name =
  List.fold_left
    (fun (sec, words) (s, self) ->
      if String.equal s.name name then (sec +. self, words +. s.words)
      else (sec, words))
    (0.0, 0.0) (self_times t)

let to_chrome_json t ~meta =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"words\": %.0f}}"
        s.name
        ((s.t0 -. t.origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.words)
    (spans t);
  Printf.bprintf b "\n], \"displayTimeUnit\": \"ms\", \"otherData\": %s}\n" meta;
  Buffer.contents b
