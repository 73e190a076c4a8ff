(** Interned name dictionaries (token stores).

    Neo4j keeps labels, relationship types and property keys as small
    token stores cached in memory; records refer to them by id. One
    [Dict.t] serves one namespace. Ids are dense from 0 in creation
    order.

    A dictionary is plain mutable state owned by its database: like
    the [Db] around it, it has one owner at a time and changes owner
    only through a synchronising handoff. *)

type t

val create : unit -> t

val clone : t -> t
(** A dictionary holding the same names under the same ids. Interns
    on either side never show in the other. *)

val intern : t -> string -> int
(** Id for the name, creating it when new. *)

val find : t -> string -> int option
(** Id for an existing name; [None] when never interned. *)

val name : t -> int -> string
(** @raise Mgq_core.Types.Schema_error when the id is out of range. *)

val names : t -> string list
(** All names in id order. *)
