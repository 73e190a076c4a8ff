(** Synthetic Twitter crawl generator.

    The Li et al. KDD'12 dataset the paper loads (Table 1) is not
    redistributable, so this generator produces a crawl with the same
    shape at a configurable scale:

    - a follower network grown by preferential attachment: power-law
      in-degrees (celebrities emerge) with power-law out-degrees,
      averaging [follows_per_user];
    - a small {e active} fraction of users carrying all the tweets
      ([tweets_per_active] each), as in the paper where 140 k of
      24.8 M users have tweet data;
    - Zipf-distributed hashtags over a vocabulary proportional to the
      user count, and mentions biased towards the author's followees.

    {!scaled} reproduces Table 1's node/edge-type {e ratios}
    (tweets ~= users, follows ~= 11.5 x users, mentions ~= 0.46 per
    tweet, tags ~= 0.30 per tweet, hashtags ~= 0.025 x users) at
    whatever [n_users] is chosen. Everything is deterministic in
    [seed]. *)

type config = {
  seed : int;
  n_users : int;
  follows_per_user : float;  (** mean out-degree of the follows network *)
  out_degree_alpha : float;  (** power-law exponent for out-degrees (> 1) *)
  active_fraction : float;  (** fraction of users that tweet *)
  tweets_per_active : int;
  mentions_per_tweet : float;  (** mean; actual counts are geometric *)
  tags_per_tweet : float;
  hashtag_vocab_fraction : float;  (** vocabulary size = fraction x n_users *)
  hashtag_zipf_s : float;
  with_retweets : bool;
      (** the paper could not reconstruct retweets; [false] mirrors
          Table 1, [true] additionally generates them (used by the
          composite-query example) *)
  retweets_per_tweet : float;
}

val scaled : ?seed:int -> n_users:int -> unit -> config

val generate : config -> Dataset.t
(** Deterministic in [config.seed]. *)
