type kind =
  | Begin
  | Read of { reg : int; value : int }
  | Write of { reg : int; value : int }
  | Commit_ok
  | Conflict of { key : string; reason : string }
  | Abort
  | Crash

type event = { idx : int; session : int; txn : int; kind : kind }

type t = { mutable rev_events : event list; mutable n : int }

let create () = { rev_events = []; n = 0 }

let record t ~session ~txn kind =
  t.rev_events <- { idx = t.n; session; txn; kind } :: t.rev_events;
  t.n <- t.n + 1

let events t = List.rev t.rev_events

let kind_to_string = function
  | Begin -> "begin"
  | Read { reg; value } -> Printf.sprintf "r(reg%d)=%d" reg value
  | Write { reg; value } -> Printf.sprintf "w(reg%d):=%d" reg value
  | Commit_ok -> "commit"
  | Conflict { key; reason } -> Printf.sprintf "conflict[%s: %s]" key reason
  | Abort -> "abort"
  | Crash -> "CRASH"

let event_to_string e =
  Printf.sprintf "%4d  s%d/t%-3d %s" e.idx e.session e.txn (kind_to_string e.kind)

let to_lines t = List.map event_to_string (events t)
