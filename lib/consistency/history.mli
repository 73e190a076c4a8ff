(** A totally ordered record of one interleaved run.

    The engine is single-threaded, so the scheduler observes a {e
    total} order of operations — no vector clocks, no uncertainty
    windows. Every write in a run carries a globally unique value
    (the scheduler guarantees it), so a read names exactly one write:
    the combination makes anomaly checking in {!Checker} exact rather
    than heuristic, the property Elle derives from list-append
    histories. *)

type kind =
  | Begin
  | Read of { reg : int; value : int }
  | Write of { reg : int; value : int }
  | Commit_ok
  | Conflict of { key : string; reason : string }
      (** the transaction lost a write-write conflict and rolled back *)
  | Abort  (** voluntary rollback *)
  | Crash  (** the simulated machine died during this commit *)

type event = { idx : int; session : int; txn : int; kind : kind }

type t

val create : unit -> t
val record : t -> session:int -> txn:int -> kind -> unit

val events : t -> event list
(** In recording order; [idx] is the position. *)

val to_lines : t -> string list
(** One line per event — the run's artifact form. *)
