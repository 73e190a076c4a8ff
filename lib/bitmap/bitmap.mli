(** Compressed bitmaps over non-negative integers.

    Sparksee's published storage design (Martínez-Bazán et al., IDEAS
    2012) keeps every graph collection — the objects of a type, the
    objects holding an attribute value, the neighbours of a node — as
    a compressed bitmap, so that query evaluation is set algebra over
    bitmaps. This module is that substrate: a two-level "roaring
    style" bitmap. Values are split into a 16-bit high key selecting a
    chunk and a 16-bit low part stored in the chunk's container, which
    is either a sorted array (sparse) or a fixed 64 Kbit bitset
    (dense). Containers switch representation automatically at 4096
    entries.

    Bitmaps are mutable for single-element updates ([add] / [remove]);
    the algebraic operations ([union], [inter], [diff]) allocate fresh
    results and never mutate their arguments. *)

type t

val create : unit -> t
(** A fresh empty bitmap. *)

val of_list : int list -> t
val to_list : t -> int list
(** Ascending order. *)

val copy : t -> t
(** Deep copy; the result shares no mutable state with the input. *)

val add : t -> int -> unit
(** [add t v] inserts [v]. Requires [v >= 0]. No-op when present. *)

val remove : t -> int -> unit
(** No-op when absent. *)

val mem : t -> int -> bool
val cardinality : t -> int
val is_empty : t -> bool

val min_elt : t -> int option
val max_elt : t -> int option

val nth : t -> int -> int
(** [nth t i] is the [i]-th smallest member (0-based). Raises
    [Invalid_argument] when [i] is out of range. O(chunks + container)
    — used to pick random members of object sets. *)

val iter : (int -> unit) -> t -> unit
(** Ascending order. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
(** Ascending order. *)

val exists : (int -> bool) -> t -> bool

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val union_into : t -> t -> unit
(** [union_into dst src] adds every member of [src] to [dst] —
    the importer's hot path. *)

val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b] is true when every member of [a] is in [b]. *)

val memory_words : t -> int
(** Approximate heap footprint in machine words; reported by the
    import benches the way the paper reports database size on disk. *)

val encode : Mgq_codec.Codec.Enc.t -> t -> unit
(** Append the bitmap's binary form: per chunk, a varint key and
    either a delta-varint sparse container (gap-1 coding, so dense
    runs cost a byte per member) or a dense bitset truncated at its
    highest non-zero 64-bit word. *)

val decode : Mgq_codec.Codec.Dec.t -> t
(** Inverse of {!encode}; validates key order, container bounds and
    the dense-container cardinality against its shipped words.
    @raise Mgq_codec.Codec.Error on malformed input. *)

val serialize : t -> string
(** {!encode} sealed in a checksummed {!Mgq_codec.Codec.Page}. *)

val deserialize : string -> t
(** Inverse of {!serialize}; rejects trailing bytes.
    @raise Mgq_codec.Codec.Error on corrupt input. *)
