(** The two cluster drills, written once for [mgq cluster], bench
    C1–C3, the audit's and the chaos campaign's failover arms, and
    [test_cluster]. Each returns its counts and its oracles
    as {!Mgq_util.Verdict.t}s. *)

type sessions_run = {
  stale : int;  (** reads that missed their own session's last write *)
  promotions : (int * Cluster.promotion) list;  (** [(step, promotion)], in order *)
  verdicts : Mgq_util.Verdict.t list;
      (** [read-your-writes], [no-acked-commit-lost], and with
          [failover] also [promoted] *)
}

val sessions :
  ?failover:bool ->
  Cluster.t ->
  sessions:int ->
  steps:int ->
  write_ratio:float ->
  seed:int ->
  sessions_run
(** The read-your-writes workload: each session owns one marker node;
    each step picks a session and either writes the step number into
    its marker or reads the marker back through the router. With
    [failover] the primary is armed at step [steps / 2] to crash at a
    seeded write; that write's step promotes a replica and the run
    finishes on it. The [promoted] verdict fails when the armed crash
    never fired (it can land past the run's last write). *)

type step = { run : 'a. (unit -> 'a) -> 'a }
(** What every engine step of {!failover_trial} runs through: each
    kill, write, promotion and read is one [run]. A caller that shares
    the cluster with other threads passes its lock here. *)

type trial = {
  acked : int list;
      (** ids of the nodes the acknowledged writes created, in write
          order; on a cluster that already held data they do not start
          at 0 *)
  promotion : Cluster.promotion;
  verdicts : Mgq_util.Verdict.t list;
      (** [no-acked-commit-lost], [clean-scan], [acked-present] *)
}

val failover_trial : ?step:step -> Cluster.t -> writes:int -> seed:int -> trial
(** One crash-then-promote run on [cluster], every step through [step]
    (default: run it directly). The primary is armed to crash at a
    seeded page write in [1 .. 6 * writes]; up to [writes] create-only
    writes, labelled [drill], follow. When the seeded point lies past
    them, the primary is re-armed so the next write dies: every trial
    fails over. Then the most advanced replica is promoted and every
    acknowledged write is read back on it. *)
