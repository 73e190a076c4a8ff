(* Linux process and host facts the benchmark reports. *)

let read_lines path =
  match open_in path with
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
    go []
  | exception Sys_error _ -> []

let words line =
  List.filter (( <> ) "") (String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line))

(* Aggregate CPU steal ticks since boot: field 8 of the "cpu" line. *)
let steal_ticks () =
  match read_lines "/proc/stat" with
  | first :: _ -> (
    match words first with
    | "cpu" :: rest when List.length rest >= 8 -> int_of_string (List.nth rest 7)
    | _ -> 0)
  | [] -> 0

(* A "kB" field of a process's status file, in MB; [pid] "self" for
   this one. *)
let status_mb field pid =
  let kb =
    List.find_map
      (fun line ->
        match words line with
        | [ f; kb; "kB" ] when f = field ^ ":" -> int_of_string_opt kb
        | _ -> None)
      (read_lines (Printf.sprintf "/proc/%s/status" pid))
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith (Printf.sprintf "no %s for process %s" field pid)

(* Peak resident set (VmHWM). *)
let peak_rss_mb = status_mb "VmHWM"

(* Current resident set (VmRSS). *)
let rss_mb = status_mb "VmRSS"

(* Reset a process's VmHWM to its current resident set (Linux
   clear_refs value 5). *)
let reset_peak_rss pid =
  let oc = open_out (Printf.sprintf "/proc/%s/clear_refs" pid) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

let nproc () = Domain.recommended_domain_count ()

let now_ns () = Int64.to_int (Mgq_util.Stats.Timing.now_ns ())
