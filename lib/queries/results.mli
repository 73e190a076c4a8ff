(** Canonical query answers.

    Every implementation of a workload query — reference oracle,
    Cypher, record-store core API, bitmap navigation API — reduces its
    answer to one of these, using dataset-level identifiers (uid / tid
    / tag string) rather than engine ids, so results are directly
    comparable across engines. *)

type t =
  | Ids of int list  (** ascending, deduplicated *)
  | Counted of (int * int) list  (** best-first: count desc, then id asc *)
  | Tag_counts of (string * int) list  (** best-first: count desc, then tag asc *)
  | Tags of string list  (** ascending, deduplicated *)
  | Path_length of int option
  | Degraded of { partial : t; frontier : int; frontier_total : int }
      (** Graceful degradation under a deadline: [partial] was computed
          from a seeded sample of [frontier] out of [frontier_total]
          frontier entries because the remaining deadline could not
          afford the full traversal. Distinct from
          {!Budget_exhausted}, which reports a traversal cut off
          {e mid-flight}; a [Degraded] answer chose its smaller plan
          {e up front} and completed it. *)

exception
  Budget_exhausted of {
    partial : t;  (** everything accumulated before the ceiling *)
    hits : int;  (** db hits charged when the budget tripped *)
    consumed_ns : int;  (** simulated time charged when it tripped *)
  }
(** A budgeted query ran out of budget. Graceful degradation: the
    answer so far is carried along, canonically ordered, so callers can
    serve it as an explicit partial response. *)

val budgeted :
  Mgq_storage.Cost_model.t ->
  Mgq_util.Budget.t option ->
  partial:(unit -> t) ->
  (unit -> unit) ->
  t
(** [budgeted cost budget ~partial body] runs the accumulating [body]
    under [budget] (attached to [cost]); returns [partial ()] on
    completion, and raises {!Budget_exhausted} around [partial ()]
    when {!Mgq_util.Budget.Exhausted} fires mid-body. *)

val sort_ids : int list -> int list
val take : int -> 'a list -> 'a list

val top_n_counted : int -> (int, int) Hashtbl.t -> (int * int) list
(** Best [n] of a counting table, in canonical order. *)

val top_n_tag_counts : int -> (string, int) Hashtbl.t -> (string * int) list

val bump : ('a, int) Hashtbl.t -> 'a -> unit
(** Increment a counter, creating it at 1. *)

val equal : t -> t -> bool
val to_string : t -> string
val cardinality : t -> int

val strip_degraded : t -> t
(** The underlying answer, unwrapping any {!Degraded} layers — what
    quality metrics compare against the full result. *)
