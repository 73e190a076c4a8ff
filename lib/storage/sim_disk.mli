(** Simulated paged disk behind an LRU buffer pool.

    Pages are plain byte buffers kept in memory; "disk" vs "cache" is
    an accounting distinction, not a data-movement one. A page access
    that misses the pool is charged a fault (plus a seek penalty when
    non-adjacent to the previous fault), an access that hits is
    charged a hit, and evicting a dirty page charges a flush — exactly
    the events behind the paper's import-time spikes and cold-cache
    observations. Both engines allocate their stores from an instance
    of this module.

    The pool is an exact LRU kept in arrays indexed by page id, so an
    access does no hashing and allocates nothing.

    {b Concurrency}: a disk belongs to one domain. Every access, reads
    included, updates the pool's LRU order and the cost counters
    without synchronisation, so a disk must only be driven by the
    domain that owns its database. *)

type t

val create :
  ?config:Cost_model.config ->
  ?page_size:int ->
  ?pool_pages:int ->
  ?checkpoint_dirty_pages:int ->
  unit ->
  t
(** [page_size] defaults to 8192 bytes; [pool_pages] (the buffer-pool
    capacity, the paper's "cache size") defaults to 4096 pages.
    [checkpoint_dirty_pages], when set, makes the pool write back all
    dirty pages in one burst whenever their count crosses the
    threshold — the mechanism behind the periodic jumps in the
    paper's import-time series (Figures 2 and 3): "sharp jumps in the
    insertion time of edges is when the cache is full and has to
    flush to disk". *)

val clone : t -> t
(** A deep copy: every page's bytes and the whole pool state
    (residency, LRU order, dirty flags), sharing no mutable structure
    with [t]. The copy gets a fresh cost model with [t]'s
    configuration (counters at zero) and no fault plan.
    @raise Invalid_argument when [t] has crashed. *)

val cost : t -> Cost_model.t
val page_size : t -> int

val allocate_page : t -> int
(** Append a fresh zeroed page; returns its page id. The new page
    enters the pool dirty. *)

val page_count : t -> int
val resident_pages : t -> int
val pool_capacity : t -> int

val dirty_pages : t -> int
(** Resident pages written since they were last flushed. *)

val set_pool_capacity : t -> int -> unit
(** Shrink or grow the pool; shrinking evicts (and flushes) LRU pages
    immediately. Used by the import benches to reproduce Sparksee's
    extent/cache-size experiments. *)

val with_page_read : t -> int -> (Bytes.t -> 'a) -> 'a
(** Access a page for reading; charges hit or fault. The callback must
    not retain the buffer. *)

val read_page : t -> int -> Bytes.t
(** Closure-free {!with_page_read}: same accounting and fault draws,
    returns the page buffer directly. For hot read paths that must not
    allocate; the caller must not retain the buffer across other disk
    operations (eviction reuses nothing today, but the contract is the
    same as {!with_page_read}'s). *)

val with_page_write : t -> int -> (Bytes.t -> 'a) -> 'a
(** Access a page for writing; charges hit or fault and marks the page
    dirty. *)

val flush_all : t -> unit
(** Write back every dirty page (charging flushes), keeping residency
    — a checkpoint. *)

val evict_all : t -> unit
(** Flush dirty pages and empty the pool entirely: the cold-cache
    starting state of Section 4. *)

val disk_bytes : t -> int
(** Total allocated size ("database size on disk"). *)

(** {1 Fault injection}

    See {!Fault} for the semantics of plans, transient errors, and
    crashes. While a plan is armed, {!with_page_read},
    {!with_page_write}, {!flush_all} and (via the cost model) every
    db hit become decision points; a crashed disk raises
    {!Fault.Crashed} on all I/O until {!reopen}. *)

val arm_faults : t -> Fault.plan -> unit
(** Arm a plan on this disk and on its cost model (so db-hit faults
    fire too). Replaces any previous plan. *)

val disarm_faults : t -> unit

val fault_plan : t -> Fault.plan option

val crashed : t -> bool

val reopen : t -> unit
(** Restart after a crash: clears the crashed flag, disarms the
    plan, and empties the pool (cold cache). Durable page bytes —
    including any torn page — are untouched; it is the recovery
    code's job to distrust them. *)

val with_faults_suspended : t -> (unit -> 'a) -> 'a
(** Run [f] with injection paused (no-op when no plan is armed).
    Rollback and recovery paths use this: they model in-memory or
    post-restart work that the plan must not sabotage. *)

val with_transients_suspended : t -> (unit -> 'a) -> 'a
(** Run [f] with transient injection paused but the crash point still
    armed (see {!Fault.with_transients_suspended}). Mutators use this
    for their physical-mutation region. *)
