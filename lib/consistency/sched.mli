(** Seeded deterministic scheduler: N logical sessions interleaved at
    engine-call granularity over one single-threaded {!Mgq_neo.Db}.

    Each session runs a pre-generated program of register
    transactions (reads and writes of the ["v"] property of ["reg"]
    nodes). A step picks one live session uniformly (seeded) and
    advances it by exactly one engine call — the unit at which db
    hits are charged and the finest granularity at which interleaving
    is observable, since engine calls are exception-atomic.
    Determinism: two runs with the same {!config} produce identical
    histories. Program generation and scheduling draw from
    independent streams of the same seed, so changing scheduling
    pressure (e.g. [sessions]) does not reshuffle the workloads.

    Every write carries a globally unique value (initial register
    values included), which is what makes {!Checker} exact.

    With [crash_at_commit = Some k], the [k]-th commit attempt arms
    the simulated disk to die (torn) on its next page write — i.e.
    mid-WAL-append for that commit — after which the run stops and
    {!val:run}[.crashed] is set. *)

type config = {
  seed : int;
  sessions : int;
  txns_per_session : int;
  ops_per_txn : int;
  registers : int;
  isolation : Mgq_neo.Db.isolation;
  crash_at_commit : int option;  (** die mid-WAL-append of the k-th commit attempt *)
}

val config :
  ?sessions:int ->
  ?txns_per_session:int ->
  ?ops_per_txn:int ->
  ?registers:int ->
  ?crash_at_commit:int ->
  seed:int ->
  isolation:Mgq_neo.Db.isolation ->
  unit ->
  config
(** Defaults: 4 sessions x 4 txns x 4 ops over 3 registers, no
    crash. Each op writes with probability 0.5; each transaction
    aborts with probability 0.15. *)

type run = {
  cfg : config;
  db : Mgq_neo.Db.t;
  history : History.t;
  reg_nodes : int array;  (** register index -> node id *)
  initial : (int * int) list;  (** register -> unique pre-run value *)
  crashed : bool;
  acked : (int * (int * int) list) list;
      (** acknowledged commits in commit order: txn id and its
          (register, value) writes *)
  crash_commit_writes : (int * int) list option;
      (** writes of the transaction whose commit the crash
          interrupted: durable iff its WAL record survived *)
  committed : int;
  conflicts : int;
  aborted : int;
}

val run : config -> run

val final_state : run -> (int * int) list
(** Registers read back from the live db after the run; [[]] if the
    run crashed (the live state is unreachable — recover first). *)

val committed_expectation : run -> (int * int) list
(** [initial] overlaid with every acked commit's writes in commit
    order — what the registers must equal if exactly the acked
    transactions survive. *)

val as_int : Mgq_core.Value.t -> int
