(** The Table 2 workload expressed declaratively.

    Query texts are exposed so benches can EXPLAIN/PROFILE them and so
    the three Section 4 recommendation phrasings can be compared; the
    runners execute them through a context's session (hitting its plan
    cache) and canonicalise answers to {!Results.t}. *)

val text_q1 : string

val text_q2_1 : string
val text_q2_2 : string
val text_q2_3 : string
val text_q3_1 : string
val text_q3_2 : string
val text_q4_1 : string
val text_q4_2 : string
val text_q5_1 : string
val text_q5_2 : string

val text_q6_1 : int -> string
(** The max-hops bound is spliced into the variable-length pattern
    (Cypher cannot parameterise it either). *)

val text_q4_variant_a : string
(** Section 4 phrasing (a): [-\[:follows*2..2\]->] plus anti-pattern. *)

val text_q4_variant_b : string
(** Phrasing (b): staged [WITH collect(f)] then [NOT fof IN friends] —
    the paper found this fastest. *)

val text_q4_variant_c : string
(** Phrasing (c): expand [*1..2] then remove depth-1 friends — the
    paper could not get it to finish in reasonable time. *)

exception Bad_shape of string
(** A query returned rows of an unexpected shape. *)

val q1_select : Contexts.neo -> threshold:int -> Results.t
val q1_band : Contexts.neo -> lo:int -> hi:int -> Results.t
val q2_1 : Contexts.neo -> uid:int -> Results.t
val q2_2 : Contexts.neo -> uid:int -> Results.t
val q2_3 : Contexts.neo -> uid:int -> Results.t
val q3_1 : Contexts.neo -> uid:int -> n:int -> Results.t
val q3_2 : Contexts.neo -> tag:string -> n:int -> Results.t
val q4_1 : Contexts.neo -> uid:int -> n:int -> Results.t
val q4_2 : Contexts.neo -> uid:int -> n:int -> Results.t
val q4_variant : Contexts.neo -> variant:[ `A | `B | `C ] -> uid:int -> n:int -> Results.t
val q5_1 : Contexts.neo -> uid:int -> n:int -> Results.t
val q5_2 : Contexts.neo -> uid:int -> n:int -> Results.t
val q6_1 : Contexts.neo -> uid1:int -> uid2:int -> max_hops:int -> Results.t
