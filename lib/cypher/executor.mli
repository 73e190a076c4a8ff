(** Physical plan execution.

    A plan is compiled once, when it enters the plan cache: variables
    become integer slots of an [item array] row, expressions become
    closures, and parameters are resolved once per run. Each operator
    reads its input through a producer and, but for the label scan,
    materialises its output: operators run one at a time, so the
    order of store accesses is the plan's operator order. The label
    scan streams into its consumer; its entries come from the
    in-memory scan store (one db hit, no page), so the interleaving
    moves no page access. Profiling stays exact: a materialised
    operator is measured around its whole evaluation, and a streamed
    scan counts its rows and brackets each call into its consumer, so
    each operator reports the rows and db hits it would with the scan
    materialised: what Cypher's PROFILE reports and what the paper
    used to compare query phrasings. *)

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
