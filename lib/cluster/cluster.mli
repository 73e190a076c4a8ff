(** A WAL-shipping replication cluster: one primary, N read replicas,
    and a consistency-aware query router — all deterministic
    simulation, seeded end to end.

    Writes commit on the primary exactly as on a single instance (the
    WAL append is the durability point); each committed frame is then
    {e shipped} — streamed as raw frame payloads via
    {!Mgq_neo.Wal.fold_frames_from} past every replica's receipt mark. Commits are acknowledged
    semi-synchronously: only once [sync_replicas] replicas have
    journaled the frame (dropped shipments resend, costing ticks), so
    an acknowledged commit survives primary failure as long as one
    sync replica does. Replicas apply received frames under a
    configurable lag model (see {!Replica.lag}), and reads are routed
    by a session-aware {!Router} that guarantees read-your-writes.

    Failover ({!kill_primary} then {!promote}) promotes the replica
    with the highest journaled LSN: it replays its WAL tail, passes a
    crash-recovery consistency check (rebuilding from its own log via
    {!Mgq_neo.Db.recover_report}), and becomes the new shipping
    source. With a receipt quorum of at least one, no acknowledged
    commit is ever lost ([lost_acked = 0]).

    Time is a logical tick counter: shipping rounds, router waits and
    promotion steps advance it. Nothing here is concurrent — the
    cluster is a deterministic state machine, which is what makes
    30-run failover sweeps ordinary unit tests. *)

exception Unavailable of string
(** Raised when a write (or a primary-fallback read) arrives while the
    primary is down. *)

type config = {
  replicas : int;
  seed : int;
  lag : Replica.lag;
  drop_p : float;  (** per-shipment drop probability (seeded, resent) *)
  sync_replicas : int;
      (** receipt quorum acknowledging a commit; 0 = fully async
          (acknowledged commits can then be lost on failover) *)
  policy : Router.policy;
  wait_tick_ns : int;
      (** simulated nanoseconds one router wait tick charges to a read's
          {!Mgq_util.Budget} *)
  max_wait_ticks : int;  (** wait cap for un-budgeted reads *)
  pool_pages : int option;  (** buffer-pool size for each instance *)
}

val default_config : config
(** 2 replicas, no lag, no drops, quorum 1, round-robin, 1 ms wait
    ticks. *)

type t

val create : ?config:config -> ?primary:Mgq_neo.Db.t -> unit -> t
(** A cluster around [primary] (default: a fresh empty database with
    [config.pool_pages]), which may already hold data, for example a
    finished import, but no open transaction. Every replica starts as
    {!Mgq_neo.Db.clone} of the primary, with received = applied =
    {!head_lsn}: a base backup, after which WAL shipping carries only
    later commits. Everything the primary holds at creation counts as
    acknowledged.
    @raise Invalid_argument when [sync_replicas > replicas].
    @raise Mgq_neo.Db.Tx_error when [primary] has an open transaction. *)

val primary : t -> Mgq_neo.Db.t
val replicas : t -> Replica.t array
val router : t -> Router.t

val head_lsn : t -> int
(** The primary's committed high-water mark. *)

val acked_lsn : t -> int
(** LSN of the latest {e acknowledged} commit (quorum receipt
    confirmed). *)

val now : t -> int
(** The logical clock, in ticks. *)

val epoch : t -> int
(** Number of promotions so far. *)

val session : t -> int -> Router.session
(** Find or create the session with this id. Sessions carry the
    high-water LSN that read-your-writes enforces. *)

val write :
  t -> ?budget:Mgq_util.Budget.t -> session:Router.session -> (Mgq_neo.Db.t -> 'a) -> 'a
(** Run [f] on the primary inside a transaction; on commit, ship the
    frame until the receipt quorum acknowledges, then advance the
    session's high-water mark. Exceptions from [f] (including injected
    crashes, which also take the primary down) propagate after
    rollback. Each shipping/resend round charges [wait_tick_ns] to
    [budget] — deadline propagation across cluster retries — but a
    committed write is never un-acknowledged by exhaustion: the budget
    is simply left spent for the caller's next charge to trip.
    @raise Unavailable when the primary is down. *)

val read :
  t -> ?budget:Mgq_util.Budget.t -> session:Router.session -> (Mgq_neo.Db.t -> 'a) -> 'a
(** Route one read. The chosen instance always satisfies the
    session's read-your-writes mark; waiting for a lagged replica
    charges [wait_tick_ns] per tick to [budget] (deadline exhaustion
    falls back to the primary).
    @raise Unavailable when only the (down) primary qualifies. *)

val read_routed :
  t ->
  ?budget:Mgq_util.Budget.t ->
  session:Router.session ->
  (Mgq_neo.Db.t -> 'a) ->
  'a * Router.choice
(** {!read}, also reporting where the read was served. *)

val choose :
  t -> ?budget:Mgq_util.Budget.t -> session:Router.session -> unit -> Router.choice
(** The routing decision alone, without running the read — the hook an
    overload guard needs to interpose a circuit breaker between
    routing and serving (record the outcome against the chosen
    replica's breaker, re-route on failure). Waiting for a lagged
    replica charges [budget] exactly as {!read} does. *)

val serve : t -> Router.choice -> (Mgq_neo.Db.t -> 'a) -> 'a
(** Run [f] against the instance a {!choose} decision names.
    @raise Unavailable when the choice is the (down) primary. *)

val tick : t -> unit
(** Advance time one tick: ship pending frames to every replica (when
    the primary is up) and apply whatever the lag models allow. *)

val kill_primary : t -> crash_at_write:int -> unit
(** Arm a crash fault on the primary's disk: the [crash_at_write]-th
    subsequent page write tears and the disk dies. The write that
    trips it raises ({!Mgq_storage.Fault.Torn_write} or [Crashed])
    through {!write}, after which the primary is down: {!write} raises
    {!Unavailable} until a {!promote}. *)

type promotion = {
  new_primary : int;  (** id of the promoted replica *)
  tail_applied : int;  (** journaled-but-unapplied frames replayed *)
  replayed : int;  (** WAL records replayed by the consistency pass *)
  stop : Mgq_neo.Wal.stop;  (** scan verdict on the promoted log ([Clean]) *)
  lost_acked : int;  (** acknowledged commits lost (0 under quorum >= 1) *)
  downtime_ticks : int;
}

val promote : t -> promotion
(** Fail over: pick the replica with the highest journaled LSN, replay
    its WAL tail, rebuild it from its own log (the crash-recovery
    oracle), and install it as the new primary. The remaining replicas
    resume shipping from the new primary's log; the router restarts
    over the smaller replica set.
    @raise Failure when no replicas remain. *)
