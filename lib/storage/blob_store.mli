(** Append-only variable-length payload store (string store).

    Node and edge properties whose values are strings — tweet text
    above all — do not fit fixed-width records. They are appended
    here and referenced by byte offset from property records, the way
    Neo4j's dynamic string store works. Tweet payloads dominate import
    volume in the paper (Figure 3's slow middle region), so blob
    writes go through the same buffer pool and cost model as record
    writes. *)

type t

val create : Sim_disk.t -> name:string -> t

val clone : t -> Sim_disk.t -> t
(** The same store over [disk], a {!Sim_disk.clone} of this store's
    disk, with its own copies of the page table and handle table. *)

val append : t -> string -> int
(** Store a string; returns its handle (a stable byte offset).
    Strings may span pages. *)

val read : t -> int -> string
(** Fetch the string behind a handle. Raises [Invalid_argument] on a
    handle not returned by [append]. *)

val stored_bytes : t -> int
(** Total payload bytes appended (excluding headers). *)

val count : t -> int
(** Number of strings appended. *)
