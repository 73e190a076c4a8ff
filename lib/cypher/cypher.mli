(** Public query interface: sessions, plan cache, PROFILE.

    A session wraps a database with a plan cache keyed on the raw
    query text. Queries that pass values as parameters ([$uid]) keep
    a stable text and hit the cache on every run after the first;
    queries that splice literals recompile every time — the exact
    mechanism behind the paper's advice that "a good speedup can be
    achieved by specifying parameters, because it allows Cypher to
    cache the execution plans". Compilation charges a deterministic
    simulated cost so the cache's benefit shows up in the simulated
    timings as well as wall-clock. *)

type t

type planner =
  | Heuristic  (** {!Plan.plan}: greedy start-point and ordering rules *)
  | Cost_based  (** {!Planner.plan}: statistics-driven enumeration *)

val create : ?planner:planner -> Mgq_neo.Db.t -> t
(** [planner] defaults to [Cost_based]. Each compilation charges 1.5
    ms of simulated time.

    The plan cache is keyed on query text {e and} validated against
    the database's statistics epoch: ANALYZE and index DDL bump the
    epoch, so a cached plan compiled under old statistics or an old
    schema is recompiled on next use rather than reused. *)

val db : t -> Mgq_neo.Db.t

type query_stats = {
  compiled : bool;  (** this call compiled the plan (cache miss) *)
  parse_plan_ms : float;  (** wall-clock time spent compiling (0 on hit) *)
}

type result = {
  columns : string list;
  rows : Runtime.item list list;
  profile : Executor.profile_entry list option;
  stats : query_stats;
  updates : Executor.update_counts;
      (** what CREATE / SET / DELETE clauses changed (all zero for
          read-only queries) *)
}

exception Query_error of string
(** Wraps parse, plan and execution errors with context. *)

val run : ?params:Runtime.params -> ?budget:Mgq_util.Budget.t -> t -> string -> result
(** Parse (or fetch from cache), plan and execute. A query prefixed
    with [PROFILE] returns per-operator statistics in [profile]. A
    query prefixed with [EXPLAIN] is planned but not executed: the
    single [plan] column holds the rendered plan with estimated rows
    and cost per operator. [EXPLAIN ANALYZE] executes and reports
    estimated vs actual rows with a per-operator q-error.
    Queries containing write clauses (CREATE / SET / REMOVE / DELETE)
    execute inside a transaction: an execution error rolls back every
    change the statement made. With [budget], execution (not
    compilation) runs under it and may raise
    {!Mgq_util.Budget.Exhausted}; a budgeted write query that exhausts
    mid-statement rolls back. *)

val explain : ?params:Runtime.params -> t -> string -> string
(** The physical plan rendering, without executing. *)

val explain_estimated : ?params:Runtime.params -> t -> string -> string
(** {!explain} plus per-operator estimated rows and cost (header line
    first). *)

type analyze_entry = {
  op : string;
  detail : string;
  est_rows : float;  (** estimator's row prediction *)
  act_rows : int;  (** rows the operator actually emitted *)
  est_cost : float;  (** predicted db hits *)
  act_hits : int;  (** db hits actually charged *)
  q_error : float;
      (** max(est/actual, actual/est) over rows, both floored at 1 —
          the standard cardinality-estimation accuracy measure *)
}

val explain_analyze : ?params:Runtime.params -> t -> string -> analyze_entry list
(** Execute with profiling and pair each operator's estimate with its
    measured rows and db hits. *)

val plan_of : t -> string -> Plan.t
(** The (possibly cached) physical plan for a query text. *)

val compilations : t -> int
(** Number of cache-miss compilations performed by this session. *)

val cache_size : t -> int

val value_rows : result -> Mgq_core.Value.t list list
(** Rows converted to plain values (nodes/edges as ids, paths as
    lengths) for display and tests. *)

val to_string : result -> string
(** Result table rendering, including the profile when present. *)
