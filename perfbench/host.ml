(* What a result needs to be compared across machines and commits: the
   process's own peak memory, the host, and the source revision.  Read
   straight from /proc and the checkout's files, so nothing is spawned. *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* Channels on /proc report length 0, so read them line by line. *)
let proc_field path key =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let prefix = key ^ ":" in
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line when String.starts_with ~prefix line ->
                let rest =
                  String.sub line (String.length prefix)
                    (String.length line - String.length prefix)
                in
                Scanf.sscanf_opt (String.trim rest) "%d" Fun.id
            | _ -> scan ()
          in
          scan ())

(* This process's VmHWM: the peak resident set of this workload alone,
   since every workload runs in its own process. *)
let peak_rss_kb () =
  Option.value ~default:0 (proc_field "/proc/self/status" "VmHWM")

let mem_total_kb () =
  Option.value ~default:0 (proc_field "/proc/meminfo" "MemTotal")

(* HEAD's commit when run from a git checkout, "unknown" otherwise (an
   exported source tree carries no history). *)
let git_rev () =
  let trim s = String.trim s in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
      let head = trim head in
      if not (String.starts_with ~prefix:"ref: " head) then head
      else begin
        let ref_name = String.sub head 5 (String.length head - 5) in
        match read_file (Filename.concat ".git" ref_name) with
        | Some rev -> trim rev
        | None -> (
            match read_file ".git/packed-refs" with
            | None -> "unknown"
            | Some packed -> (
                let found =
                  List.find_map
                    (fun line ->
                      match String.split_on_char ' ' line with
                      | [ rev; name ] when String.equal name ref_name -> Some rev
                      | _ -> None)
                    (String.split_on_char '\n' packed)
                in
                match found with Some rev -> rev | None -> "unknown"))
      end
