module Db = Mgq_neo.Db
module Wal = Mgq_neo.Wal
module Rng = Mgq_util.Rng
module Fault = Mgq_storage.Fault

type lag =
  | Immediate
  | Frames_behind of int
  | Latency of { ticks : int }

let lag_to_string = function
  | Immediate -> "immediate"
  | Frames_behind k -> Printf.sprintf "frames-behind %d" k
  | Latency { ticks } -> Printf.sprintf "latency %d ticks" ticks

(* "immediate" | "latency:N" | "behind:N" — the CLI's spelling. *)
let lag_of_string s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "immediate" ] -> Some Immediate
  | [ "latency"; n ] -> (
    match int_of_string_opt n with
    | Some n when n >= 0 -> Some (Latency { ticks = n })
    | _ -> None)
  | [ "behind"; n ] -> (
    match int_of_string_opt n with
    | Some n when n >= 0 -> Some (Frames_behind n)
    | _ -> None)
  | _ -> None

type t = {
  id : int;
  db : Db.t;
  lag : lag;
  drop_p : float;
  rng : Rng.t;
  inbox : (int * string * int) Queue.t; (* lsn, frame payload, received at tick *)
  mutable received_lsn : int;
  mutable applied_lsn : int;
  mutable drops : int;
  mutable apply_faults : int;
}

let create ~id ~lag ~drop_p rng db =
  let lsn = Db.last_lsn db in
  {
    id;
    db;
    lag;
    drop_p;
    rng;
    inbox = Queue.create ();
    received_lsn = lsn;
    applied_lsn = lsn;
    drops = 0;
    apply_faults = 0;
  }

let id t = t.id
let db t = t.db
let lag t = t.lag
let received_lsn t = t.received_lsn
let applied_lsn t = t.applied_lsn
let drops t = t.drops
let apply_faults t = t.apply_faults

let receive t ~now ~lsn payload =
  if lsn <= t.received_lsn then true (* duplicate resend; already journaled *)
  else if lsn > t.received_lsn + 1 then false (* gap: sender must restart from received_lsn *)
  else if t.drop_p > 0.0 && Rng.chance t.rng t.drop_p then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
    Queue.add (lsn, payload, now) t.inbox;
    t.received_lsn <- lsn;
    true
  end

(* Is the inbox head eligible under the lag model? *)
let ready t ~now ~head_lsn =
  match Queue.peek_opt t.inbox with
  | None -> false
  | Some (lsn, _, received) -> (
    match t.lag with
    | Immediate -> true
    | Frames_behind k -> lsn <= head_lsn - k
    | Latency { ticks } -> received + ticks <= now)

(* Apply the inbox head; pops only after the transaction committed, so
   a transient fault leaves the frame queued for the next tick. The
   payload is decoded here — receipt journals opaque (CRC-verified)
   bytes, so shipping never pays for decoding frames a lag model may
   hold for many ticks. *)
let apply_head t =
  let lsn, payload, _ = Queue.peek t.inbox in
  Db.apply_redo t.db (Wal.decode_ops payload);
  ignore (Queue.pop t.inbox);
  t.applied_lsn <- lsn

let apply_ready t ~now ~head_lsn =
  let applied = ref 0 in
  (try
     while ready t ~now ~head_lsn do
       apply_head t;
       incr applied
     done
   with Fault.Io_error _ ->
     (* A transiently failing apply is a failed shipment: the frame
        stays in the inbox and the next tick retries it. *)
     t.apply_faults <- t.apply_faults + 1);
  !applied

let catch_up t =
  let applied = ref 0 in
  while not (Queue.is_empty t.inbox) do
    apply_head t;
    incr applied
  done;
  !applied
