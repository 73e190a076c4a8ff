(** Sparksee's [Objects]: an unordered set of unique object ids.

    Every navigation operation ([neighbors], [explode], [select])
    returns one of these, and query answers are assembled by combining
    them with set algebra — the paper's observation that Sparksee
    "requires sole manipulation of mainly navigation operations ...
    to retrieve results". Backed by the compressed bitmap substrate. *)

type t

val empty : unit -> t
val of_list : int list -> t
val to_list : t -> int list
val copy : t -> t

val contains : t -> int -> bool
val count : t -> int
val is_empty : t -> bool

val union : t -> t -> t
val inter : t -> t -> t
val difference : t -> t -> t
(** All three allocate fresh sets. *)

val union_into : t -> t -> unit
(** Accumulate in place — the idiom for merging per-node neighbor
    sets inside a loop. *)

val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val sample : t -> Mgq_util.Rng.t -> int
(** Uniform random member. Requires non-empty. *)

val of_bitmap : Mgq_bitmap.Bitmap.t -> t
(** Wrap without copying: the engine hands out copies already. *)
