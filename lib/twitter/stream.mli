(** Streaming update workload (the paper's future work, Section 5:
    "investigate how the graph could be generated on-the-fly with new
    incoming users, tweets and follow relationships ... test for the
    ability of systems to handle update workloads").

    A stream continues an existing crawl: events arrive in a
    deterministic order (seeded), weighted like live Twitter traffic —
    mostly tweets and follows, a trickle of new users and unfollows.
    {!Live_neo} / {!Live_sparks} apply events to a loaded engine
    incrementally, something the paper's 2015-era systems could not do
    ("both Neo4j and Sparksee could not import additional data into an
    existing database"). *)

type event =
  | New_user of { uid : int; name : string }
  | New_follow of { follower : int; followee : int }
  | Unfollow of { follower : int; followee : int }
  | New_tweet of {
      tid : int;
      author : int;
      text : string;
      mentions : int list;
      tags : string list;  (** hashtag names; may introduce new hashtags *)
    }

val describe : event -> string

type t

val create : ?seed:int -> Dataset.t -> t
(** Continue from the crawl's final state: uids/tids continue its
    id ranges, follow targets keep preferential attachment, hashtags
    keep their Zipf popularity (new tags appear occasionally). Events
    are 5 % new users, 50 % follows, 5 % unfollows and 40 % tweets. *)

val next : t -> event
(** Deterministic in the creation seed. *)

val take : t -> int -> event list

(** A self-checking in-memory model of the evolving graph, used by the
    tests to validate the engine appliers. *)
module Model : sig
  type m

  val of_dataset : Dataset.t -> m
  val apply : m -> event -> unit
  val n_users : m -> int
  val followees : m -> int -> int list
  (** Sorted. *)

  val tweet_count : m -> int -> int
  (** Tweets authored by a user. *)

  val follows_count : m -> int
end
