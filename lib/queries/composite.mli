(** Section 3.3's composite "topic experts" query.

    "Suppose user A is interested in a topic (represented by a hashtag
    H) and is looking for users to know more about the topic": find
    hashtags co-occurring with H (Q3.2), the most retweeted tweets on
    them, those tweets' posters, ordered by shortest-path distance
    from A (Q6.1). The paper sketches but cannot run this query (its
    crawl lacks retweet edges); with the generator's
    [with_retweets = true] it runs end to end on both engines. *)

type expert = {
  expert_uid : int;
  distance : int option;  (** follows-hops from the asking user; [None] = unreachable *)
}

val run_neo :
  Contexts.neo ->
  uid:int ->
  tag:string ->
  n_hashtags:int ->
  n_tweets:int ->
  max_hops:int ->
  expert list

val run_sparks :
  Contexts.sparks ->
  uid:int ->
  tag:string ->
  n_hashtags:int ->
  n_tweets:int ->
  max_hops:int ->
  expert list
