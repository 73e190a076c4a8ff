(** Property values.

    Nodes and edges carry key-value pairs (Section 2.1 requires the
    engines to "associate key-value pairs to a node or edge"). The
    value domain covers what the Twitter schema needs — identifiers,
    counts, timestamps, text — plus null, which Cypher-style
    expressions propagate. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

val equal : t -> t -> bool
(** Value equality with numeric coercion ([Int 1 = Float 1.]) and
    strict null ([Null] equals nothing, not even [Null]). *)

val compare_values : t -> t -> int option
(** Ordering for ORDER BY and range predicates: numbers compare
    numerically across Int/Float, strings lexicographically, booleans
    false < true. Incomparable type pairs and nulls yield [None]. *)

val is_truthy : t -> bool
(** Predicate semantics: [Bool true] is true; everything else
    (including non-empty strings and numbers) is false, as in Cypher. *)

val type_name : t -> string

val to_display : t -> string
(** Human-readable rendering for result tables ("null", "42",
    "\"text\""). *)

val hash_fold : t -> int
(** Stable hash consistent with {!equal} (numeric coercion included),
    used by hash indexes. *)
