(** Physical plan execution.

    A plan is compiled once, when it enters the plan cache: variables
    become integer slots of an [item array] row, expressions become
    closures, and parameters are resolved once per run. Operators then
    run eagerly, one at a time, over materialised row lists; this
    makes per-operator profiling exact: the rows produced and the db
    hits charged by each operator are measured around its whole
    evaluation, which is what Cypher's PROFILE reports and what the
    paper used to compare query phrasings. It also fixes the order of
    store accesses to the plan's operator order. *)

type profile_entry = {
  name : string;  (** operator name, e.g. "Expand(All)" *)
  detail : string;
  rows : int;  (** rows the operator emitted *)
  db_hits : int;  (** store accesses attributable to the operator *)
}

type update_counts = {
  nodes_created : int;
  edges_created : int;
  properties_set : int;
  nodes_deleted : int;
  edges_deleted : int;
}

val no_updates : update_counts

type result = {
  columns : string list;
  rows : Runtime.item list list;
  profile : profile_entry list option;
  updates : update_counts;
}

exception Exec_error of string

type compiled
(** A plan resolved to slots and closures; reusable across runs and
    parameter sets. *)

val compile : Plan.t -> compiled

val run :
  ?budget:Mgq_util.Budget.t ->
  Mgq_neo.Db.t ->
  params:Runtime.params ->
  profile:bool ->
  compiled ->
  result
(** Execute a compiled plan. With [budget], the whole evaluation runs
    under it: every db hit charges a hit and simulated time, and crossing a
    ceiling raises {!Mgq_util.Budget.Exhausted} (rolling back any
    write operators executed so far when called inside a
    transaction). *)

val total_db_hits : profile_entry list -> int

val profile_to_string : profile_entry list -> string
(** Table rendering of a profile (operator | detail | rows | db hits). *)
