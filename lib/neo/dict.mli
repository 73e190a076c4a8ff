(** Interned name dictionaries (token stores).

    Neo4j keeps labels, relationship types and property keys as small
    token stores cached in memory; records refer to them by id. One
    [Dict.t] serves one namespace. Ids are dense from 0 in creation
    order.

    {b Concurrency}: any domain may read, and one domain writes.
    Lookups take no lock: each new name is published as a fresh
    immutable snapshot, so a reader sees either the dictionary before
    a concurrent intern or after it, never a table mid-update.
    Mutation follows a single-writer discipline: the first interning
    domain is pinned as the writer and interns of new names from any
    other domain raise [Invalid_argument] — use {!adopt_writer} for
    an explicit ownership handover. *)

type t

val create : unit -> t

val clone : t -> t
(** A dictionary holding the same names under the same ids, starting
    from [t]'s published snapshot. Interns on either side never show
    in the other. The copy's writer is unpinned: its first interning
    domain pins itself. *)

val intern : t -> string -> int
(** Id for the name, creating it when new.
    @raise Invalid_argument when a new name is interned from a domain
    other than the pinned writer (the first domain that ever
    interned); lookups of existing names never raise. *)

val adopt_writer : t -> unit
(** Re-pin the single-writer assertion to the calling domain — the
    explicit handover for databases built by one domain and mutated
    by another afterwards. *)

val find : t -> string -> int option
(** Id for an existing name; [None] when never interned. *)

val name : t -> int -> string
(** @raise Mgq_core.Types.Schema_error when the id is out of range. *)

val count : t -> int

val names : t -> string list
(** All names in id order. *)
