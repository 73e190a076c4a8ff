(** Incremental event application — "the true real-time nature of
    microblogs" (Section 5).

    Each live handle wraps a loaded engine plus the uid/tid/tag maps
    the importer produced, and applies {!Stream.event}s one at a time:
    exactly the capability the paper found missing in 2015 ("both
    Neo4j and Sparksee could not import additional data into an
    existing database, hence all data was loaded in one single
    batch"). *)

module Live_neo : sig
  type t

  val attach :
    Mgq_neo.Db.t -> users:int array -> tweets:int array -> hashtags:int array -> Dataset.t -> t
  (** Wrap a database produced by {!Import_neo.run} (same dataset and
      id maps). *)

  val apply : t -> Stream.event -> unit
  (** Applies in its own transaction. Unfollow of a non-existent edge
      and mentions of unknown users are ignored (at-least-once stream
      semantics). *)

  val apply_with_retry :
    ?rng:Mgq_util.Rng.t ->
    t ->
    Stream.event ->
    Mgq_util.Retry.outcome
  (** {!apply} under {!Mgq_util.Retry.default_policy}: a transiently
      failing attempt rolls back (transaction + id caches) and is
      re-applied after a deterministic backoff, whose simulated
      nanoseconds are charged to the engine's clock. Only {!Mgq_storage.Fault.Io_error} is
      retried — crashes and logic errors propagate immediately.
      @raise Mgq_util.Retry.Attempts_exhausted
        when every attempt failed. *)

  val node_of_uid : t -> int -> int option
end

module Live_sparks : sig
  type t

  val attach :
    Mgq_sparks.Sdb.t -> users:int array -> tweets:int array -> hashtags:int array -> Dataset.t -> t

  val apply : t -> Stream.event -> unit
  (** The bitmap engine has no transactions, so atomicity is
      compensation-based: a failing event rolls back its own journal
      (with injection suspended) before re-raising. *)

  val apply_with_retry :
    ?rng:Mgq_util.Rng.t ->
    t ->
    Stream.event ->
    Mgq_util.Retry.outcome
  (** As {!Live_neo.apply_with_retry}, over the compensation journal.
      @raise Mgq_util.Retry.Attempts_exhausted
        when every attempt failed. *)

  val oid_of_uid : t -> int -> int option
end
