(** The workload written imperatively against the record-store
    engine's core API and traversal framework — the paper's "alternate
    solutions", trading Cypher's declarativeness for hand-tuned access
    paths. *)

val node_of_uid : Contexts.neo -> int -> int option
(** Index seek on user.uid. *)

val node_of_tag : Contexts.neo -> string -> int option
val uid_of : Contexts.neo -> int -> int

val q1_select : Contexts.neo -> threshold:int -> Results.t
val q2_1 : Contexts.neo -> uid:int -> Results.t
val q2_2 : Contexts.neo -> uid:int -> Results.t

val q2_3 : ?budget:Mgq_util.Budget.t -> Contexts.neo -> uid:int -> Results.t
(** The 3-step expansion — the workload's db-hit explosion. With
    [budget], exhaustion raises {!Results.Budget_exhausted} carrying
    the tags collected so far. *)

val q3_1 : ?budget:Mgq_util.Budget.t -> Contexts.neo -> uid:int -> n:int -> Results.t
(** Co-mentions, budgeted like {!q2_3}: exhaustion raises
    {!Results.Budget_exhausted} carrying the top-n of the counts
    accumulated so far. *)

val q3_2 : Contexts.neo -> tag:string -> n:int -> Results.t
val q4_1 : Contexts.neo -> uid:int -> n:int -> Results.t
val q4_2 : Contexts.neo -> uid:int -> n:int -> Results.t

val q4_1_traversal : Contexts.neo -> uid:int -> n:int -> Results.t
(** Q4.1 through the traversal framework (depth-2 expansion with
    node-path uniqueness), whose cost "is dependent on how the query
    is translated into a series of API calls" (Section 2.1). *)

val q5_1 : Contexts.neo -> uid:int -> n:int -> Results.t
val q5_2 : Contexts.neo -> uid:int -> n:int -> Results.t

val q6_1 :
  ?budget:Mgq_util.Budget.t -> Contexts.neo -> uid1:int -> uid2:int -> max_hops:int -> Results.t
(** Shortest path, budgeted: a BFS cut off mid-frontier has no usable
    prefix, so {!Results.Budget_exhausted} carries
    [Path_length None] — "no path found within budget". *)

(** {1 Deadline-aware degraded modes}

    Overload protection's last line: when the remaining deadline can't
    afford the full traversal, run a seeded bounded sample of the
    frontier and return {!Results.Degraded} instead of blowing the
    deadline or failing. Neither function raises
    {!Results.Budget_exhausted}; an optimistic estimate that trips
    mid-flight degrades further to whatever was counted. *)

val q4_1_within :
  ?seed:int -> ?deadline:Mgq_util.Budget.t -> Contexts.neo -> uid:int -> n:int -> Results.t
(** Q4.1 (recommendation) within a deadline: expands every followee
    when affordable, otherwise a seeded sample sized by the remaining
    budget and a probed fan-out estimate. *)

val q5_1_within :
  ?seed:int -> ?deadline:Mgq_util.Budget.t -> Contexts.neo -> uid:int -> n:int -> Results.t
(** Q5.1 (influence) within a deadline: the frontier is the tweets
    mentioning the user; the follower prefetch is paid on either
    path. *)
