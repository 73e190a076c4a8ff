(** The two cluster drills, written once for [mgq cluster], bench
    C1–C3 and [test_cluster]. Each returns its counts and its oracles
    as {!Mgq_util.Verdict.t}s. *)

type sessions_run = {
  stale : int;  (** reads that missed their own session's last write *)
  promotions : (int * Cluster.promotion) list;  (** [(step, promotion)], in order *)
  verdicts : Mgq_util.Verdict.t list;  (** [read-your-writes], [no-acked-commit-lost] *)
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
    finishes on it. *)

type trial = {
  cluster : Cluster.t;  (** after promotion *)
  acked : int;  (** writes acknowledged before the crash: nodes [0 .. acked - 1] *)
  promotion : Cluster.promotion;
  verdicts : Mgq_util.Verdict.t list;
      (** [no-acked-commit-lost], [clean-scan], [acked-present] *)
}

val failover_trial : seed:int -> trial
(** One crash-then-promote run: three least-lagged replicas, 1-tick
    lag, 10% dropped shipments; up to 80 create-only writes with the
    primary armed to crash at a seeded one (or at the write after
    them), then promotion of the most advanced replica. *)
