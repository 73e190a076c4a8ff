(** Graph-statistics catalog.

    The statistics a cost-based planner needs, kept separate from the
    record stores so maintenance costs no db hits: per-label node
    counts, per-(source-label, relationship-type, direction) degree
    histograms (log2 buckets over per-node typed degrees), per-(label,
    property-key) value counts backing distinct counts and a
    most-common-values sketch, and the set of (source-label,
    target-label) endpoint pairs observed per relationship type — an
    inferred endpoint schema the planner uses to drop provably
    redundant label checks.

    The catalog is fed deltas ([event]s) by the storage engine when a
    transaction commits, and can be rebuilt from scratch by a full
    scan ([rebuild], surfaced as [Db.analyze] / the ANALYZE entry
    point). Both maintenance paths must agree exactly — [dump] renders
    the whole state deterministically so tests can property-check
    incremental == rebuilt.

    Layout and cost. Labels and relationship types are interned to
    small dense codes. Node labels live in one [int array] indexed by
    node id, and typed degrees in one [int array] per (relationship
    type, direction), also indexed by node id; the degree histograms
    hang off that (type, direction) by source-label code, and the
    endpoint pairs per type sit in an int-keyed table of packed codes.
    So an edge event costs a string probe for its type and a few array
    reads and writes, a node event a probe per property key and per
    value, and no table hashes a tuple. Replaying a generated
    20,000-user crawl into a fresh catalog on a 2-vCPU VM, [apply]
    took 0.13–0.22 µs per edge event and 1.0–1.4 µs per node event
    (one to three properties each). The arrays grow to the largest
    node id seen, so node ids must be non-negative (they are record
    ids).

    A stats {e epoch} versions everything a cached plan may depend on.
    It bumps on ANALYZE, on index create/drop (the owner calls
    [bump_epoch]) and on {e shape} changes — a label, relationship
    type, property key or endpoint pair seen for the first time —
    but NOT on every commit, so plan caches keyed on the epoch stay
    effective under steady-state writes. Shrinking is deliberately not
    a shape change: a plan that dropped a label check because every
    [:T] edge pointed at [:user] stays sound when such edges are
    removed. *)

module Value = Mgq_core.Value

type t

(** One committed storage mutation, as the catalog needs to see it.
    Edge events carry node ids only; the catalog resolves labels from
    its own node-to-label table, so applying an event reads nothing
    from the store. *)
type event =
  | Node_added of { node : int; label : string; props : (string * Value.t) list }
  | Node_removed of { node : int; props : (string * Value.t) list }
  | Edge_added of { etype : string; src : int; dst : int }
  | Edge_removed of { etype : string; src : int; dst : int }
  | Prop_set of { node : int; key : string; old_v : Value.t; new_v : Value.t }

val create : unit -> t

val copy : t -> t
(** A deep copy, epoch included, sharing no mutable state with [t]. *)

val epoch : t -> int

val bump_epoch : t -> unit
(** For stats-relevant changes the catalog cannot see itself: index
    create/drop. *)

val apply : t -> event -> unit
(** Incremental maintenance: O(1) per event (amortised over array
    growth; O(props) for node events), no db hits. *)

val rebuild :
  t ->
  nodes:(int * string * (string * Value.t) list) Seq.t ->
  edges:(string * int * int) Seq.t ->
  unit
(** Replace the whole state from a full scan (ANALYZE), then bump the
    epoch once. *)

(* ---------------- estimator accessors ---------------- *)

val total_nodes : t -> int
val label_count : t -> string -> int

val distinct_count : t -> label:string -> key:string -> int
(** Distinct values of [key] over nodes labelled [label]. *)

val prop_rows : t -> label:string -> key:string -> int
(** Nodes labelled [label] with [key] set (non-null): a running total,
    O(1). *)

val mcv : t -> ?k:int -> label:string -> key:string -> unit -> (Value.t * int) list
(** Most-common values, count-descending, ties by the smaller value;
    the sketch the equality estimator consults before falling back to
    the uniform tail. The top 10 are memoised: with the default [k]
    the same list is returned until the next write to this
    (label, key). *)

val eq_rows : t -> label:string -> key:string -> Value.t option -> float
(** Expected nodes matching [label].[key] = v. [Some v] uses the MCV
    sketch with the classic uniform-tail correction; [None] (an
    unknown parameter at plan time) assumes an average value:
    rows / distinct. *)

type degree_summary = {
  ds_edges : int;  (** total matching edges *)
  ds_sources : int;  (** candidate source nodes (including degree 0) *)
  ds_min : int;  (** lower histogram bound on a single source's degree *)
  ds_max : int;  (** upper histogram bound on a single source's degree *)
  ds_avg : float;  (** ds_edges / ds_sources *)
}

val degree_summary :
  t ->
  src_label:string option ->
  etype:string option ->
  dir:Mgq_core.Types.direction ->
  degree_summary
(** Expansion statistics: expanding from a [src_label] node (any
    label when [None]) along [etype] (any type when [None]) in [dir].
    When several (label, type, direction) histograms combine, the
    bounds stay sound: max degrees add, min degrees take the best
    single-histogram floor. *)

val endpoint_labels : t -> etype:string -> dir:Mgq_core.Types.direction -> string list
(** Labels of nodes reached by traversing an [etype] edge in [dir]
    ([Out] = edge targets, [In] = edge sources, [Both] = union),
    sorted. Exact over the current graph: an empty list means no such
    edge exists. *)

(* ---------------- rendering ---------------- *)

val dump : t -> string
(** Deterministic, complete rendering of the statistics (epoch
    excluded) — the equality witness for incremental-vs-rebuilt
    property tests. *)

val render : t -> string
(** Human-oriented summary for [mgq analyze]. *)
