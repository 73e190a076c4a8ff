(** Immutable property maps attached to nodes and edges. *)

type t

val empty : t
val of_list : (string * Value.t) list -> t
(** Later bindings win on duplicate keys. [Null] values are dropped
    (setting a property to null removes it, as in Cypher). *)

val to_list : t -> (string * Value.t) list
(** Sorted by key. *)

val get : t -> string -> Value.t
(** [Null] when absent. *)

val mem : t -> string -> bool
val set : t -> string -> Value.t -> t
(** Setting [Null] removes the key. *)

val cardinal : t -> int
val keys : t -> string list

val union : t -> t -> t
(** [union base overrides]: bindings in [overrides] win. *)
