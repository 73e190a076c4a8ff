(** A read replica: its own {!Mgq_neo.Db} instance kept in sync by
    applying WAL frames shipped from the primary.

    A replica separates {e receipt} from {e application}. Receipt
    journals a frame into the inbox (and advances [received_lsn]) —
    this is what a semi-synchronous commit waits for. Application
    replays the frame's ops through {!Mgq_neo.Db.apply_redo} (and
    advances [applied_lsn]) — this is what reads observe. The gap
    between the two is the replica's staleness, shaped by a
    configurable {!lag} model and by seeded shipment drops that force
    the primary to resend.

    Receipt is strictly in order: a frame with a gap before it is
    refused, so [received_lsn = n] proves the replica holds {e every}
    frame [1..n]. Failover leans on this: the replica with the highest
    [received_lsn] holds everything any replica holds. *)

type lag =
  | Immediate  (** apply as soon as received *)
  | Frames_behind of int
      (** trail the primary's head by [k] frames (apply a frame only
          once [k] newer ones exist) *)
  | Latency of { ticks : int }
      (** apply a frame [ticks] simulation ticks after its receipt *)

val lag_to_string : lag -> string

val lag_of_string : string -> lag option
(** Parses ["immediate"], ["latency:N"] or ["behind:N"]. *)

type t

val create : id:int -> lag:lag -> drop_p:float -> Mgq_util.Rng.t -> Mgq_neo.Db.t -> t
(** A replica serving [db], a base backup of the primary
    ({!Mgq_neo.Db.clone}): it has received and applied everything up to
    [Db.last_lsn db], and shipping resumes from there. [drop_p] is the
    seeded per-shipment probability that {!receive} drops the frame
    (the primary resends on a later tick). *)

val id : t -> int
val db : t -> Mgq_neo.Db.t
val lag : t -> lag

val received_lsn : t -> int
(** Highest LSN journaled in order (the durability high-water mark). *)

val applied_lsn : t -> int
(** Highest LSN applied to the database (the visibility high-water
    mark); reads on {!db} observe exactly the prefix [1..applied_lsn]. *)

val drops : t -> int
val apply_faults : t -> int

val receive : t -> now:int -> lsn:int -> string -> bool
(** Offer one frame as its raw (CRC-verified) payload bytes — the
    blob {!Mgq_neo.Wal.fold_frames_from} yields; decoding is deferred
    to apply time. Returns [false] when the shipment is dropped
    (seeded) or arrives with a gap; the sender resends from
    {!received_lsn}. Duplicates are acknowledged without re-journaling. *)

val apply_ready : t -> now:int -> head_lsn:int -> int
(** Apply every inbox frame eligible under the lag model (decoding
    each payload on the way in); returns how many were applied. A
    transient {!Mgq_storage.Fault.Io_error} during an apply leaves
    that frame queued for the next tick. *)

val catch_up : t -> int
(** Apply the whole inbox regardless of lag — the promotion path
    ("replay the WAL tail"); returns frames applied. *)
