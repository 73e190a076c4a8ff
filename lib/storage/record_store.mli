(** Fixed-size record files over the simulated disk.

    Neo4j's store layer is a family of fixed-width record files (node
    store, relationship store, property store); record ids are
    positions, so id-to-record lookup is one page access. This module
    is that abstraction: a store holds records of a fixed number
    of 8-byte integer fields, packed into pages, with every field
    access counted as a db hit against the disk's cost model. *)

type t

val create : Sim_disk.t -> fields:int -> t
(** [fields] is the number of 8-byte slots per record; must satisfy
    [1 <= fields] and [fields * 8 <= page_size]. *)

val clone : t -> Sim_disk.t -> t
(** The same store over [disk], a {!Sim_disk.clone} of this store's
    disk: the page table is copied, so the two stores grow
    independently. *)

val allocate : t -> int
(** Append a zeroed record; returns its id. Ids are dense from 0. *)

val count : t -> int
(** Number of records ever allocated. *)

val get : t -> id:int -> field:int -> int
(** Read one field. Charges a db hit plus the underlying page access;
    decodes the field without an [int64] box, so it allocates
    nothing. *)

val set : t -> id:int -> field:int -> int -> unit
(** Write one field. Charges a db hit; dirties the page. *)

val get_record : t -> id:int -> int array
(** Read all fields with a single db hit / page access. *)

val read4 : t -> id:int -> f0:int -> f1:int -> f2:int -> f3:int -> int * int * int * int
(** Four fields in one db hit — the packed read the property-chain
    walk uses (a property record is exactly four fields). *)

val read_into : t -> id:int -> int array -> unit
(** All fields decoded into a caller-owned scratch array (length at
    least the store's field count): one db hit, zero allocation. The hot chain
    walks reuse one scratch array across every step. *)

val set_record : t -> id:int -> int array -> unit
(** Write all fields with a single db hit / page access. The array
    length must equal the store's field count. *)

val nil : int
(** Sentinel for "no record" in chain pointers (-1). *)
