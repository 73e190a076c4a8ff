(** The end-to-end concurrency/crash audit: seeded scheduler runs
    checked by {!Checker}, a durability probe over {!Mgq_neo.Db.recover},
    a catalog-leak probe, and a cluster-failover probe.

    Three arms:

    - {e snapshot-isolation}: per seed, one normal run and one run
      whose k-th commit dies mid-WAL-append. Forbidden anomalies
      (everything but write skew) must be zero; every acked commit
      must survive recovery and no aborted effect may; the stats
      catalog must equal its from-scratch rebuild (no rolled-back
      transaction leaked a delta); and the binary snapshot codec must
      round-trip the final state ({!Mgq_neo.Db.save} then
      {!Mgq_neo.Db.load} reproduces every register).
    - {e baseline} ([Read_uncommitted]): the control and harness
      self-test — with isolation off the checker {e must} report
      forbidden anomalies (dirty reads / lost updates), or a green SI
      arm would prove nothing.
    - {e failover}: a cluster primary is killed mid-write-stream;
      after {!Mgq_cluster.Cluster.promote}, [lost_acked] must be 0
      and the register must read as the last acknowledged value (or
      the single unacknowledged in-flight one).

    Durability candidates for a crashed-commit run: the recovered
    state must equal exactly [E0] (only acked commits applied) or
    [E1] ([E0] plus the crash-interrupted commit in full — its WAL
    frame is one CRC-checked record, so it survives entirely or not
    at all). *)

type arm = {
  arm_isolation : Mgq_neo.Db.isolation;
  arm_seeds : int;
  arm_anomalies : (Checker.anomaly_kind * int) list;  (** totals across seeds *)
  arm_forbidden : int;
  arm_committed : int;
  arm_conflicts : int;
  arm_aborted : int;
  arm_durability_failures : int;
  arm_catalog_leaks : int;
  arm_snapshot_failures : int;
      (** binary save/load round trips that failed to reproduce the
          live register state *)
  arm_crash_runs : int;
}

type report = {
  r_si : arm;
  r_baseline : arm option;
  r_failover_lost : int;  (** total [lost_acked] across failovers *)
  r_verdicts : Mgq_util.Verdict.t list;
      (** one per oracle, in order: [no-forbidden-anomaly],
          [durable], [no-catalog-leak], [snapshot-round-trip] (the
          snapshot-isolation arm), [failover-lost-nothing] (no acked
          commit lost, no failed probe) and [baseline-self-test] (the
          read-uncommitted arm found anomalies); a disabled arm's
          verdict passes *)
  r_lines : string list;  (** the human-readable report, in order *)
}

val run :
  ?seeds:int ->
  ?sessions:int ->
  ?txns_per_session:int ->
  ?ops_per_txn:int ->
  ?registers:int ->
  ?baseline:bool ->
  ?failover:bool ->
  unit ->
  report
(** Defaults: 32 seeds, 4 sessions x 4 txns x 4 ops, 3 registers,
    baseline and failover arms on. Deterministic: same arguments,
    same report. *)

val to_text : report -> string
(** The report as the artifact CI uploads. *)

val isolation_name : Mgq_neo.Db.isolation -> string
