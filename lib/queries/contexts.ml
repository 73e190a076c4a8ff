(* Ready-to-query engine instances: dataset + importer + handles the
   query drivers need (session, type ids, attribute ids, id maps). *)

module Db = Mgq_neo.Db
module Cypher = Mgq_cypher.Cypher
module Sdb = Mgq_sparks.Sdb
module Schema = Mgq_twitter.Schema
module Dataset = Mgq_twitter.Dataset
module Import_neo = Mgq_twitter.Import_neo
module Import_sparks = Mgq_twitter.Import_sparks
module Import_report = Mgq_twitter.Import_report

type neo = {
  db : Db.t;
  session : Cypher.t;
  users : int array; (* dataset index -> node id *)
  tweets : int array;
  hashtags : int array;
  report : Import_report.t;
}

type sparks = {
  sdb : Sdb.t;
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
  s_report : Import_report.t;
}

(* The session defaults to the heuristic planner: the paper's
   Section-4 observations (different phrasings of the recommendation
   query plan and cost differently) are properties of that planner,
   and the claims tests reproduce them through this context. Pass
   [~planner:Cypher.Cost_based] to study the statistics-driven
   planner instead. *)
let build_neo ?(planner = Cypher.Heuristic) ?pool_pages dataset =
  let db =
    Db.create ?pool_pages ~checkpoint_dirty_pages:Import_neo.default_checkpoint_pages ()
  in
  let report, users, tweets, hashtags = Import_neo.run db dataset in
  { db; session = Cypher.create ~planner db; users; tweets; hashtags; report }

let build_sparks ?(materialize_neighbors = false) dataset =
  let sdb = Sdb.create ~materialize_neighbors () in
  let s_report, s_users, s_tweets, s_hashtags = Import_sparks.run sdb dataset in
  let t_user = Sdb.find_type sdb Schema.user in
  let t_tweet = Sdb.find_type sdb Schema.tweet in
  let t_hashtag = Sdb.find_type sdb Schema.hashtag in
  {
    sdb;
    s_users;
    s_tweets;
    s_hashtags;
    t_user;
    t_tweet;
    t_hashtag;
    t_follows = Sdb.find_type sdb Schema.follows;
    t_posts = Sdb.find_type sdb Schema.posts;
    t_mentions = Sdb.find_type sdb Schema.mentions;
    t_tags = Sdb.find_type sdb Schema.tags;
    t_retweets = Sdb.find_type sdb Schema.retweets;
    a_uid = Sdb.find_attribute sdb t_user Schema.uid;
    a_name = Sdb.find_attribute sdb t_user Schema.name;
    a_followers = Sdb.find_attribute sdb t_user Schema.followers;
    a_tid = Sdb.find_attribute sdb t_tweet Schema.tid;
    a_text = Sdb.find_attribute sdb t_tweet Schema.text;
    a_tag = Sdb.find_attribute sdb t_hashtag Schema.tag;
    s_report;
  }
