(** Ready-to-query engine instances.

    Building a context imports a {!Mgq_twitter.Dataset} into the
    engine and keeps everything a query driver needs: the session /
    type ids / attribute ids, the dataset-index-to-engine-id maps the
    importer produced, and the import report (which doubles as the
    Figure 2 / Figure 3 measurement). *)

type neo = {
  db : Mgq_neo.Db.t;
  session : Mgq_cypher.Cypher.t;
  users : int array;  (** dataset user index -> node id *)
  tweets : int array;
  hashtags : int array;
  report : Mgq_twitter.Import_report.t;
}

type sparks = {
  sdb : Mgq_sparks.Sdb.t;
  s_users : int array;
  s_tweets : int array;
  s_hashtags : int array;
  t_user : int;
  t_tweet : int;
  t_hashtag : int;
  t_follows : int;
  t_posts : int;
  t_mentions : int;
  t_tags : int;
  t_retweets : int;
  a_uid : int;
  a_name : int;
  a_followers : int;
  a_tid : int;
  a_text : int;
  a_tag : int;
  s_report : Mgq_twitter.Import_report.t;
}

val build_neo :
  ?planner:Mgq_cypher.Cypher.planner ->
  ?pool_pages:int ->
  Mgq_twitter.Dataset.t ->
  neo
(** Import into a fresh record-store engine (checkpoint threshold
    {!Mgq_twitter.Import_neo.default_checkpoint_pages})
    and open a Cypher session on it. [planner] defaults to
    [Heuristic] — the paper's Section-4 phrasing-sensitivity claims
    are properties of the heuristic planner and the claims tests
    reproduce them through this context. *)

val build_sparks :
  ?materialize_neighbors:bool ->
  Mgq_twitter.Dataset.t ->
  sparks
(** Import into a fresh bitmap engine and resolve all schema
    handles. *)
