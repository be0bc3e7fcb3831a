module Telemetry = Disco_util.Telemetry
module Dataplane = Disco_core.Dataplane

module type ROUTER = sig
  type t

  val name : string
  val flat_names : string
  val build : Testbed.t -> t
  val ttl_factor : int

  val first_header :
    t -> tel:Telemetry.t -> src:int -> dst:int -> Dataplane.header

  val later_header :
    t -> tel:Telemetry.t -> src:int -> dst:int -> Dataplane.header

  val oracle_first :
    t -> tel:Telemetry.t -> src:int -> dst:int -> int list option

  val oracle_later :
    t -> tel:Telemetry.t -> src:int -> dst:int -> int list option

  val state_entries : t -> int -> int
  val state_bytes : t -> int -> float
  val fork : t -> t
  val compile : t -> Dataplane.fast_plan
end

type packed = (module ROUTER)

let name_of (module R : ROUTER) = R.name

let registry : packed list ref = ref []

let register ((module R : ROUTER) as m) =
  if List.exists (fun p -> name_of p = R.name) !registry then
    invalid_arg (Printf.sprintf "Protocol.register: duplicate router %S" R.name);
  registry := !registry @ [ m ]

(* disco-lint: allow L8 the registry is written once at module-init registration time and read-only while the pool runs *)
let all () = !registry

(* disco-lint: allow L8 the registry is written once at module-init registration time and read-only while the pool runs *)
let names () = List.map name_of !registry

(* disco-lint: allow L8 the registry is written once at module-init registration time and read-only while the pool runs *)
let find name = List.find_opt (fun p -> name_of p = name) !registry

let find_exn name =
  match find name with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "Protocol.find_exn: unknown router %S (expected one of: %s)"
           name
           (String.concat ", " (names ())))
