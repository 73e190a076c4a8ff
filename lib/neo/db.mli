(** The record-store property-graph engine (Neo4j analog).

    Storage layout mirrors Neo4j's store files:

    - a {e node store} of fixed records holding the label token, the
      heads of the node's outgoing and incoming relationship chains,
      the head of its property chain, and cached degrees;
    - a {e relationship store} whose records are threaded into two
      singly-linked chains (one through the source's outgoing edges,
      one through the target's incoming edges), so expanding a node
      costs one record access per relationship — the behaviour behind
      the paper's observation that 2-step expansion explodes with
      high out-degree;
    - a {e property store} of chained key/tag/payload records, with
      string payloads in a dynamic string (blob) store;
    - in-memory {e token dictionaries} and a {e label scan store};
    - optional {e schema hash indexes} on (label, property), used by
      the Cypher planner for index seeks.

    All record traffic flows through {!Mgq_storage.Sim_disk}, so every
    operation has a deterministic db-hit / page-fault cost. Writes are
    transactional: grouped into a transaction with rollback via an
    undo log ("Neo4j is a fully transactional graph management
    system"). *)

type t

val create :
  ?config:Mgq_storage.Cost_model.config ->
  ?pool_pages:int ->
  ?checkpoint_dirty_pages:int ->
  ?dense_node_threshold:int ->
  ?wal:bool ->
  unit ->
  t
(** [dense_node_threshold] (default 50): total degree at which a node
    converts to the dense representation — per-type relationship
    group records, so a typed expansion walks only that type's chain
    (Neo4j's dense-node optimisation; the import tool's "computing
    the dense nodes" step).

    [wal] (default [true]): maintain a write-ahead log (see {!Wal}) on
    the same simulated disk. Committing then appends the transaction's
    logical redo record, making {!recover} possible after a simulated
    crash. *)

val disk : t -> Mgq_storage.Sim_disk.t

val wal : t -> Wal.t option

val last_lsn : t -> int
(** LSN of the newest committed WAL record (0 without a WAL) — the
    instance's replication high-water mark. *)

(** {1 Persistence} *)

exception Corrupt_snapshot of string
(** A snapshot file failed validation: wrong magic, unsupported
    version, truncation, or CRC mismatch. Raised by {!load} {e before}
    unmarshalling, so a corrupt file can never produce a silently
    broken (or crashing) database. *)

val save : t -> string -> unit
(** Serialise the database to a file as a v6 logical image: an 8-byte
    magic, a version byte, the payload length (int64 LE) and CRC-32
    (int32 LE), then a codec-encoded payload — settings, dictionaries,
    per-id node and edge rows (tombstones included) and the index
    schema, all varints and length-prefixed strings. Unlike the
    marshalled v5 form, the bytes are stable across compiler versions.
    The image is written to [path ^ ".tmp"] and renamed over [path]
    once closed, so a failed or interrupted save leaves the previous
    snapshot intact.
    @raise Tx_error when a transaction is open. *)

val load : string -> t
(** Inverse of {!save}; validates magic, version, length and checksum,
    then replays the image's rows through the ordinary mutators
    against a fresh disk — chains, label scans, relationship groups,
    indexes and statistics are rebuilt, not deserialised. The loaded
    instance's write-ahead log starts empty with [base_lsn] at the
    snapshot's high-water mark: the snapshot is its own replay base
    and LSN numbering continues the original sequence.
    @raise Corrupt_snapshot on a foreign, truncated or corrupt file
    (malformed payload bytes included).
    @raise Failure when the file cannot be opened. *)

val checkpoint : t -> string -> unit
(** Flush every dirty page, {!save} a snapshot to [path], then
    truncate the write-ahead log. Ordered so that a fault at any step
    leaves the previous snapshot and the full log intact: {!save}
    replaces [path] only once the new image is complete.
    @raise Tx_error when a transaction is open. *)

val adjacency_segment_bytes : t -> int
(** Always 0: adjacency lives only in the record chains, with no
    packed segments beside them. Kept for benchmark drivers that still
    report it as a metric. *)

val recover : ?snapshot:string -> t -> t
(** Rebuild the database after a simulated crash (or at any point):
    load the last checkpoint [snapshot] (an identically configured
    empty database when absent) and replay the intact prefix of [t]'s
    write-ahead log into it, one transaction per log record — torn
    tail records are discarded. Logged creations replay under their
    recorded ids (allocations consumed by rolled-back or concurrent
    transactions are re-created as tombstone holes), so a log that
    interleaved with aborted transactions recovers exactly. The crashed instance's data pages are
    never trusted. Returns the recovered instance; [t] should be
    discarded. *)

type recovery = {
  replayed : int;  (** intact records replayed *)
  replay_last_lsn : int;  (** LSN of the last replayed record *)
  stop : Wal.stop;  (** why the log scan ended: {!Wal.Clean} or corruption *)
}

val recover_report : ?snapshot:string -> t -> t * recovery
(** {!recover}, plus a diagnosis of the replay: how many records were
    applied, up to which LSN, and whether the scan ended cleanly (the
    zero sentinel) or on a torn/corrupt frame. *)

val apply_redo : t -> Wal.op list -> unit
(** Apply one shipped WAL record as a transaction of its own (the
    replication path): replays each op and re-commits through this
    instance's WAL, keeping the local log LSN-aligned with the
    shipped stream. *)

(** {1 Schema} *)

val labels : t -> string list
val edge_types : t -> string list
val property_keys : t -> string list

(** {1 Transactions}

    MVCC-lite snapshot isolation. A transaction takes its snapshot at
    {!begin_txn}: it sees exactly the state committed by then, plus
    its own writes. Writes go to the store in place, each leaving a
    version entry with the key's before-image on a per-key chain —
    concurrent snapshots resolve reads through those chains, and the
    entries double as the transaction's undo log. Version chains cost
    nothing once no transaction is open: both MVCC tables are cleared
    at that point, so the single-transaction fast path (imports,
    benchmarks) reads the store directly.

    Conflicts are write-write: updating a key an {e uncommitted}
    concurrent transaction already wrote fails immediately (second
    updater loses), and commit validates the write set against
    commits that landed after the snapshot (first committer wins).
    Both raise/return the typed {!Tx_conflict} / {!conflict}. Write
    skew — disjoint write sets with crossing reads — is permitted, as
    under any snapshot isolation; the {!Mgq_consistency} audit
    harness reports it.

    Only one transaction {e executes} at a time (the engine is
    single-threaded); [Db] maintains any number of {e open}
    transactions, and a scheduler interleaves them by switching the
    active one with {!activate}. {!with_tx} wraps the common case of
    one transaction at a time around a callback.

    Caveat (documented limitation): deletions by a {e concurrent}
    transaction are unlinked from relationship chains and label scans
    in place, so older snapshots stop seeing them in [edges_of] /
    [nodes_with_label] before the deleter commits. Existence checks
    and [all_nodes] resolve correctly. The audit workloads are
    insert/update-only. *)

exception Tx_error of string
(** Transaction-API misuse: {!with_tx} while a transaction is open,
    commit/rollback/activate of a closed transaction, save/checkpoint
    /analyze/set_isolation while transactions are open. *)

type conflict = {
  c_txn : int;  (** id of the transaction that lost *)
  c_key : string;  (** human-readable key, e.g. ["node 3.balance"] *)
  c_reason : string;
}

exception Tx_conflict of conflict
(** A write-write conflict under {!Snapshot} isolation. Raised eagerly
    at the losing write; returned as [Error] from {!commit_txn} when
    first-committer-wins validation fails at the commit point. *)

type isolation =
  | Snapshot  (** MVCC snapshot isolation (default) *)
  | Read_uncommitted
      (** The bare undo-list baseline: in-place writes with no
          visibility resolution and no conflict detection. Admits
          dirty reads and lost updates — kept as the control arm the
          consistency audit measures SI against. *)

val isolation : t -> isolation

val set_isolation : t -> isolation -> unit
(** @raise Tx_error when transactions are open. *)

type txn
(** A transaction handle. *)

val begin_txn : t -> txn
(** Open a transaction with a snapshot of the currently committed
    state, and make it the active one. *)

val activate : t -> txn -> unit
(** Make [txn] the transaction whose snapshot subsequent reads and
    writes run under — the scheduler's context switch.
    @raise Tx_error when [txn] is no longer open. *)

val deactivate : t -> unit
(** No active transaction: reads see the latest committed state;
    writes auto-commit. *)

val commit_txn : t -> txn -> (unit, conflict) result
(** Validate (first committer wins), then append the redo record to
    the WAL — the durability point, which an armed fault plan can
    interrupt, leaving the transaction open — then stamp the write
    set with a commit timestamp and apply buffered statistics deltas.
    [Error] means the transaction lost validation and was rolled
    back.
    @raise Tx_error when [txn] is not open. *)

val rollback_txn : t -> txn -> unit
(** Undo the transaction's writes (newest first, fault injection
    suspended) and drop its version entries. After a simulated crash
    no undo runs ({!recover} is the only way forward).
    @raise Tx_error when [txn] is not open. *)

val with_txn : ?retries:int -> t -> (txn -> 'a) -> 'a
(** Run [f] in a fresh transaction; commit on return, roll back on
    exception. A {!Tx_conflict} (raised or returned by validation) is
    retried up to [retries] times (default 0), counted by the
    [db.tx_retries] metric, before re-raising. *)

val txn_id : txn -> int
val txn_is_open : txn -> bool

val txn_read_set : t -> txn -> string list
(** Property keys this transaction read (oldest first), as
    human-readable key names. Recorded only under
    {!set_read_tracking}. *)

val txn_write_set : t -> txn -> string list
(** Keys this transaction wrote (oldest first). *)

val set_read_tracking : t -> bool -> unit
(** Off by default: bulk loads would otherwise accumulate the whole
    store in their read set. The audit harness switches it on. *)

val open_txn_count : t -> int

val in_tx : t -> bool
(** A transaction is active. *)

val with_tx : t -> (unit -> 'a) -> 'a
(** Run in a fresh transaction ({!begin_txn}); commits on return
    ({!commit_txn}), rolls back when the callback raises (re-raising
    the exception).
    @raise Tx_error when any transaction is already open.
    @raise Tx_conflict when first-committer-wins validation fails
    (impossible when this is the only transaction). *)

(** {1 Writes}

    Outside an explicit transaction each call auto-commits. *)

val create_node : t -> label:string -> Mgq_core.Property.t -> Mgq_core.Types.node_id

val create_edge :
  t ->
  etype:string ->
  src:Mgq_core.Types.node_id ->
  dst:Mgq_core.Types.node_id ->
  Mgq_core.Property.t ->
  Mgq_core.Types.edge_id

val set_node_property : t -> Mgq_core.Types.node_id -> string -> Mgq_core.Value.t -> unit
val set_edge_property : t -> Mgq_core.Types.edge_id -> string -> Mgq_core.Value.t -> unit

val delete_edge : t -> Mgq_core.Types.edge_id -> unit

val delete_node : t -> Mgq_core.Types.node_id -> unit
(** @raise Failure when the node still has relationships. *)

(** {1 Reads} *)

val node_exists : t -> Mgq_core.Types.node_id -> bool
val node_label : t -> Mgq_core.Types.node_id -> string
val node_property : t -> Mgq_core.Types.node_id -> string -> Mgq_core.Value.t
val node_properties : t -> Mgq_core.Types.node_id -> Mgq_core.Property.t

val edge_exists : t -> Mgq_core.Types.edge_id -> bool
val edge : t -> Mgq_core.Types.edge_id -> Mgq_core.Types.edge
val edge_property : t -> Mgq_core.Types.edge_id -> string -> Mgq_core.Value.t
val edge_properties : t -> Mgq_core.Types.edge_id -> Mgq_core.Property.t

val out_degree : t -> Mgq_core.Types.node_id -> int
val in_degree : t -> Mgq_core.Types.node_id -> int

val degree :
  t -> Mgq_core.Types.node_id -> ?etype:string -> Mgq_core.Types.direction -> int
(** Without [etype] the cached degree fields answer in O(1). With a
    type filter, a dense node answers from its relationship group's
    cached chain lengths (a group-chain walk, independent of degree);
    a sparse node walks its chain. *)

val edges_of :
  t ->
  Mgq_core.Types.node_id ->
  ?etype:string ->
  Mgq_core.Types.direction ->
  Mgq_core.Types.edge Seq.t
(** Walk the node's relationship chain(s) lazily. With [Both], a
    self-loop is reported once. *)

val neighbors :
  t ->
  Mgq_core.Types.node_id ->
  ?etype:string ->
  Mgq_core.Types.direction ->
  Mgq_core.Types.node_id Seq.t
(** Other endpoints of {!edges_of}, in the same order and at the same
    db-hit and page cost, without building edge records; duplicates
    occur when the multigraph has parallel edges. *)

val all_nodes : t -> Mgq_core.Types.node_id Seq.t
(** Store scan, skipping deleted records. *)

val nodes_with_label : t -> string -> Mgq_core.Types.node_id Seq.t
(** Label scan store access: one db hit per returned node, no full
    store scan. Unknown labels yield the empty sequence. *)

val is_dense_node : t -> Mgq_core.Types.node_id -> bool
(** Whether the node has converted to relationship groups. *)

val dense_node_threshold : t -> int

val densify_node : t -> Mgq_core.Types.node_id -> unit
(** Convert a node to relationship groups now, regardless of degree —
    the batch importer's "computing the dense nodes" step converts
    soon-to-be-dense nodes up front, before their chains grow long.
    Idempotent. *)

val node_count : t -> int
val edge_count : t -> int
val label_count : t -> string -> int
val edge_type_count : t -> string -> int

(** {1 Schema indexes} *)

val create_index : t -> label:string -> property:string -> unit
(** Build a hash index over existing and future nodes of [label] keyed
    by [property]. Idempotent. Charges one db hit per scanned node.
    Bumps the stats epoch, invalidating cached plans. *)

val drop_index : t -> label:string -> property:string -> unit
(** Remove the index on ([label], [property]); a no-op when absent.
    Bumps the stats epoch, invalidating cached plans. *)

val has_index : t -> label:string -> property:string -> bool

val index_lookup :
  t -> label:string -> property:string -> Mgq_core.Value.t -> Mgq_core.Types.node_id list
(** Exact-match seek. Falls back to raising
    [Mgq_core.Types.Schema_error] when the index does not exist — the
    planner must check {!has_index} first. Hash-bucket candidates are
    verified against the property store (charging db hits), so
    collisions cannot produce false positives. *)

(** {1 Graph statistics}

    A {!Mgq_catalog.Catalog} maintained incrementally: every committed
    write applies its statistics deltas after the WAL append (rolled
    back transactions leave no trace), so cardinality estimates are
    available without ever running ANALYZE. {!analyze} rebuilds the
    catalog from a full scan; both maintenance paths agree exactly. *)

val stats : t -> Mgq_catalog.Catalog.t
(** The live statistics catalog (read-only by convention; use
    {!analyze} to rebuild it). *)

val stats_epoch : t -> int
(** Current stats epoch — bumps on {!analyze}, {!create_index} /
    {!drop_index}, and on graph-shape changes (first occurrence of a
    label, relationship type, property key or endpoint pair). Plan
    caches key on this. *)

val analyze : t -> unit
(** Rebuild the statistics catalog from a full scan of the node and
    relationship stores (the ANALYZE entry point), then bump the
    stats epoch. Charges the scan's db hits.
    @raise Tx_error when transactions are open (the scan would bake
    uncommitted state into the catalog). *)
