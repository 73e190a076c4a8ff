(** The Table 2 query workload as a uniform registry.

    Each entry carries the paper's query id and category plus four
    interchangeable runners — reference oracle, Cypher text, record-
    store core API, bitmap navigation API — all returning canonical
    {!Results.t}. The benches drive the registry for Table 2; the
    integration tests assert the four runners agree on generated
    datasets. *)

type args = {
  uid : int;
  uid2 : int;  (** second endpoint for Q6.1 *)
  tag : string;  (** seed hashtag for Q3.2 *)
  n : int;  (** top-n limit *)
  threshold : int;  (** Q1.1 follower-count threshold *)
  max_hops : int;  (** Q6.1 bound (the paper used 3) *)
}

val default_args : args

val params : args -> (string * Mgq_core.Value.t) list
(** Every parameter a Table-2 Cypher text may take ([$uid], [$u1],
    [$u2], [$tag], [$n], [$k]); a text ignores the ones it does not
    use. *)

type query = {
  id : string;  (** "Q3.1" *)
  category : string;  (** Table 2's category column *)
  description : string;
  starred : bool;  (** discussed in detail in the paper (Figure 4) *)
  cypher_text : args -> string;
  run_reference : Reference.t -> args -> Results.t;
  run_cypher : Contexts.neo -> args -> Results.t;
  run_neo_api : Contexts.neo -> args -> Results.t;
  run_sparks : Contexts.sparks -> args -> Results.t;
}

val all : query list
(** Table 2 in order: Q1.1, Q2.1-Q2.3, Q3.1-Q3.2, Q4.1-Q4.2,
    Q5.1-Q5.2, Q6.1. *)

val find : string -> query option

(** {1 Cost classes}

    Admission control's shedding priority. A Q1 select is orders of
    magnitude cheaper than a Q5 influence sweep or Q6 path search, so
    under overload the server sheds [Expensive] queries first and
    [Cheap] ones last. *)

type cost_class = Cheap | Moderate | Expensive

val cost_class_to_string : cost_class -> string

val cost_class : query -> cost_class
