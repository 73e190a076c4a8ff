(** Deterministic disk-fault injection.

    The paper's operational war stories — an aborted 8-hour load, a
    flush stall, a cold restart — are all "what happens when the disk
    misbehaves" questions the simulator could not previously ask. A
    {!plan} is a seeded, deterministic schedule of faults consulted by
    {!Sim_disk} on every page read/write/flush and by
    {!Cost_model.record_db_hit} on every record access:

    - {e transient} faults raise {!Io_error} {e before} any bytes
      move, so a retry (after rollback) can succeed;
    - the {e crash} fault fires on the Nth page write: the write
      persists only a prefix of its bytes (a torn page), the disk
      enters a crashed state refusing all further I/O, and
      {!Torn_write} (or {!Crashed} when tearing is disabled) is
      raised. Recovery reopens the disk and replays the write-ahead
      log ({!Mgq_neo.Db.recover}).

    The same run with the same seed injects the same faults, so crash
    sweeps ("kill the import at every page-write offset") are ordinary
    deterministic tests. *)

type io_op = Page_read | Page_write | Page_flush | Db_hit

exception Io_error of { op : io_op; at : int }
(** Transient failure. [at] is the page id (page ops) or the db-hit
    ordinal (record ops). Nothing was mutated; the operation can be
    retried. *)

exception Torn_write of { page : int; persisted : int }
(** The crash landed on this page write: only the first [persisted]
    bytes of the new contents reached the platter. The disk is now
    crashed. *)

exception Crashed of { writes : int }
(** Raised by the crash point when tearing is off, and by every I/O
    attempted on a crashed disk ([writes] = page writes completed
    before the crash). *)

type plan

val plan :
  ?seed:int ->
  ?read_fail_p:float ->
  ?write_fail_p:float ->
  ?flush_fail_p:float ->
  ?hit_fail_p:float ->
  ?fail_hits:int list ->
  ?crash_at_write:int ->
  ?torn_crash:bool ->
  ?page_aligned_tear:bool ->
  unit ->
  plan
(** [read_fail_p] / [write_fail_p] / [flush_fail_p] / [hit_fail_p]
    (default 0.0): per-operation probability of a transient
    {!Io_error}, drawn from the seeded rng. [fail_hits]: exact db-hit
    ordinals (1-based) that fail — deterministic placement for tests.
    [crash_at_write] (default 0 = never): 1-based page-write ordinal
    at which the simulated machine dies. [torn_crash] (default true):
    whether the dying write tears. [page_aligned_tear] (default
    false): draw tear cut offsets at page multiples only — 0 (nothing
    of the dying write persists) or [page_size] (all of it does) —
    the sector-atomic disk model, which exercises frames cut exactly
    at page boundaries. *)

type stats = {
  reads : int;
  writes : int;
  flushes : int;
  hits : int;  (** operations observed since arming *)
  injected : int;  (** transient faults injected *)
  crashes : int;  (** 0 or 1 *)
}

val stats : plan -> stats

val with_suspended : plan -> (unit -> 'a) -> 'a
(** Run [f] with injection paused — used for rollback and recovery
    paths, which model in-memory/reopened work that the fault plan
    must not sabotage. Operation counters keep advancing. *)

val with_transients_suspended : plan -> (unit -> 'a) -> 'a
(** Run [f] with only {e transient} injection paused; the crash point
    stays armed. In-transaction mutation touches buffer-pool memory —
    the disk I/O that can transiently fail happens at log-append and
    flush time — so mutators pause transients while they rewrite
    their records (an {!Io_error} landing between a physical change
    and its undo registration would defeat rollback). A crash, by
    contrast, is allowed anywhere: recovery never trusts partial
    state. Counters and rng draws keep advancing. *)

(** {1 Decision points} — called by the storage layer, one per
    operation. Each may raise {!Io_error}. *)

val on_page_read : plan -> page:int -> unit

type write_decision = Write_ok | Write_crash of { torn : bool }

val on_page_write : plan -> page:int -> write_decision

val on_flush : plan -> unit

val on_db_hit : plan -> unit

val tear_offset : plan -> page_size:int -> int
(** How many bytes of the crashing write persist: an rng draw in
    [0, page_size), or one of {0, page_size} when the plan was built
    with [page_aligned_tear]. Exactly one rng draw either way, so the
    two modes share an injection schedule. *)

val record_crash : plan -> unit
(** Bump the crash counter (called by the disk when it executes a
    [Write_crash] decision). *)
