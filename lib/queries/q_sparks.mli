(** The workload written against the bitmap engine's navigation API —
    find_object / neighbors / explode plus Objects set algebra,
    following the paper's Sparksee translations. Top-n queries keep a
    counting map and sort client-side ("the entire result set must be
    retrieved and filtered programmatically"). *)

val oid_of_uid : Contexts.sparks -> int -> int option
val oid_of_tag : Contexts.sparks -> string -> int option
val uid_of : Contexts.sparks -> int -> int

val q1_select : Contexts.sparks -> threshold:int -> Results.t

val q1_band : Contexts.sparks -> lo:int -> hi:int -> Results.t
(** Conjunctive selection evaluated the Sparksee way: one range scan
    per predicate, combined with [Objects.inter]. *)

val q2_1 : Contexts.sparks -> uid:int -> Results.t
val q2_2 : Contexts.sparks -> uid:int -> Results.t
val q2_3 : ?budget:Mgq_util.Budget.t -> Contexts.sparks -> uid:int -> Results.t
(** With [budget], exhaustion raises {!Results.Budget_exhausted}
    carrying the tags collected so far. *)

val q2_3_context : Contexts.sparks -> uid:int -> Results.t
(** Q2.3 through the Traversal/Context classes instead of raw
    navigation ops, for the Section 4 overhead comparison. *)

val q3_1 : Contexts.sparks -> uid:int -> n:int -> Results.t
val q3_2 : Contexts.sparks -> tag:string -> n:int -> Results.t
val q4_1 : Contexts.sparks -> uid:int -> n:int -> Results.t
val q4_2 : Contexts.sparks -> uid:int -> n:int -> Results.t
val q5_1 : Contexts.sparks -> uid:int -> n:int -> Results.t
val q5_2 : Contexts.sparks -> uid:int -> n:int -> Results.t
val q6_1 : Contexts.sparks -> uid1:int -> uid2:int -> max_hops:int -> Results.t
