(** Batch importer for the record-store engine (Figure 2).

    Mirrors the Neo4j import tool's behaviour the paper reports:
    nodes first (users, tweets, hashtags), an intermediate pass that
    "computes the dense nodes", then all edges, then index creation
    on the unique node identifiers. The store writes continuously:
    with a checkpoint threshold configured on the database's disk,
    flush bursts appear as jumps in the per-batch series. *)

val default_checkpoint_pages : int
(** Checkpoint threshold that makes a database reproduce Figure 2's
    flush jumps (pass to {!Mgq_neo.Db.create}). *)

type tweet_placement =
  | By_author  (** tweets of one author stored contiguously (default) *)
  | Shuffled of int
      (** random record placement (seed) — the semantic-unaware
          baseline for the Section 5 placement ablation *)

val run :
  ?batch:int ->
  ?placement:tweet_placement ->
  Mgq_neo.Db.t ->
  Dataset.t ->
  Import_report.t * int array * int array * int array
(** [run db dataset] loads everything, returning the report plus the
    dataset-index -> node-id maps for users, tweets and hashtags (used
    by query drivers to address nodes directly). [batch] (default
    2000) is the instrumentation granularity. [placement] controls the
    physical order of tweet records — semantically related placement
    keeps an author's tweets on few pages. Expects an empty
    database. *)
