(** Minimal JSON reader for the benchmark gates.

    The repo's benches write their own JSON snapshots
    ([BENCH_scaling.json]) and later read them back to resume a scaling
    sweep from its last checkpoint.  Reading them structurally (rather
    than scanning for byte offsets of known keys) keeps the resume correct
    when members are reordered or reformatted.

    Subset notes: numbers are [float]s, [\u] escapes cover the BMP only
    (no surrogate pairs) — all this repo's files need. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document; trailing non-whitespace is an error. *)

val of_file : string -> (t, string) result
(** Read and parse a file; I/O errors surface as [Error]. *)

val member : string -> t -> t option
(** First member with that key, if the value is an object. *)

val to_float : t -> float option

val to_int : t -> int option
(** [Num] with an integral value only. *)

val to_string : t -> string option
val to_list : t -> t list option

val float_member : string -> t -> float option
(** [member] composed with the corresponding projection. *)

val int_member : string -> t -> int option
val string_member : string -> t -> string option

val list_member : string -> t -> t list
(** Like [member] + [to_list] but defaulting to [[]] — iteration sites
    read naturally. *)
