(** Deterministic cost accounting for the simulated storage layer.

    The paper runs on a physical HDD machine; this repo substitutes a
    simulated disk so results are reproducible. Every storage-level
    event (record access, buffer-pool hit/fault, page flush) is
    counted here and converted into simulated nanoseconds using a
    fixed cost configuration. Benches report both wall-clock time and
    these deterministic counters — the counters are what make the
    paper's *shapes* (flush spikes, cold-cache penalties, db-hit
    comparisons between query plans) reproducible bit-for-bit.

    The process-wide [store.db_hits], [store.page_hits],
    [store.page_faults] and [store.page_flushes] metrics are derived
    {!Mgq_obs.Obs} counters: nothing is bumped per event; a snapshot
    sums every live model's counts plus those of models reset or
    garbage-collected, so the totals never go backwards. Models are
    held weakly and never kept alive by the metrics. *)

type config = {
  record_access_ns : int;  (** CPU cost of touching one record ("db hit") *)
  page_hit_ns : int;       (** buffer-pool hit *)
  page_fault_ns : int;     (** read a page from the simulated disk *)
  page_flush_ns : int;     (** write a dirty page back *)
  seek_penalty_ns : int;   (** extra cost when the faulting page is not
                               adjacent to the previously read page —
                               models HDD seeks, which the paper blames
                               for fluctuation at low row counts *)
}

val default_config : config
(** HDD-flavoured defaults (the paper's machine used a non-SSD HDD). *)

type counters = {
  db_hits : int;
  page_hits : int;
  page_faults : int;
  page_flushes : int;
  simulated_ns : int;
}

val zero_counters : counters
val add_counters : counters -> counters -> counters
val sub_counters : counters -> counters -> counters
(** [sub_counters a b] is the component-wise difference [a - b]; use a
    snapshot pair to measure one operation. *)

val simulated_ms : counters -> float

type t

val create : ?config:config -> unit -> t
val config : t -> config

val with_budget : t -> Mgq_util.Budget.t option -> (unit -> 'a) -> 'a
(** [with_budget t (Some b) f] runs [f] with [b] attached, restoring
    the previously attached budget afterwards (even on raise); with
    [None] it is just [f ()] — an enclosing attachment stays in
    force. The scoping primitive behind every [?budget] argument in
    the query layers. While attached, every db hit charges the budget
    one hit, and every accounted event charges its simulated
    nanoseconds, so [max_ns] acts as a deterministic deadline.
    Charging past a ceiling raises {!Mgq_util.Budget.Exhausted} from
    inside the accounting call, so attach only around read paths. *)

val set_faults : t -> Fault.plan option -> unit
(** Attach (or clear) a fault plan consulted on every db hit; engines
    that do not route traffic through {!Sim_disk} (the bitmap engine
    charges record accesses directly) get transient-fault coverage
    this way. A plan armed on a {!Sim_disk} is automatically attached
    here as well. *)

val faults : t -> Fault.plan option

(** [record_db_hit] may raise {!Fault.Io_error} (armed plan) or
    {!Mgq_util.Budget.Exhausted} (attached budget). *)
val record_db_hit : ?n:int -> t -> unit
val record_page_hit : t -> unit
val record_page_fault : t -> sequential:bool -> unit
val record_page_flush : ?n:int -> t -> unit

val advance_ns : t -> int -> unit
(** Add raw simulated time (used by importers to model payload
    deserialisation cost). *)

val snapshot : t -> counters

val reset : t -> unit
(** Zero this model's counters; its counts stay in the [store.*]
    totals. *)
