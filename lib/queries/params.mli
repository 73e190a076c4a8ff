(** Sweep-parameter selection for the Figure 4 experiments.

    The paper sweeps each starred query over seed entities of varying
    size — rows returned, mention degree, path length. These helpers
    pick such seeds deterministically from the reference evaluator's
    indexes. *)

val users_by_mention_degree : Reference.t -> (int * int) list
(** All users as (mention degree, uid), ascending by degree. *)

val users_by_two_step_fanout : Reference.t -> (int * int) list
(** A deterministic sample of at most 400 users as (2-step follows
    fan-out, uid), ascending — the intermediate-result size of Q4.1. *)

val spread : int -> (int * 'a) list -> (int * 'a) list
(** [spread count sorted] picks [count] entries evenly across a sorted
    weighted list so low, middle and high weights are all
    represented. *)

val pairs_by_path_length :
  ?per_bucket:int -> max_hops:int -> Reference.t -> (int * (int * int)) list
(** User pairs bucketed by undirected follows hop distance:
    [(length, (uid1, uid2)); ...], up to [per_bucket] pairs per length
    in 1..max_hops, found by deterministic rejection sampling. *)
