(** Bounded top-n selection.

    The workload is dominated by "top-n users/hashtags by count"
    queries (Q3, Q4, Q5). Both engines funnel their candidate counts
    through this structure: a bounded min-heap that keeps the [n]
    largest items seen, with deterministic tie-breaking on the item's
    key so results are stable across runs and engines. *)

type ('k, 'v) t

val create : ?capacity:int -> int -> ('k, 'v) t
(** [create n] keeps the [n] best entries. [capacity] pre-sizes the
    heap. Requires [n >= 0]. *)

val add : ('k, 'v) t -> key:'k -> score:int -> value:'v -> unit
(** Offer an entry. Higher [score] is better; ties are broken by
    polymorphic comparison on [key] (smaller key wins) so output order
    is total. *)

val size : ('k, 'v) t -> int

val to_list : ('k, 'v) t -> ('k * int * 'v) list
(** Best-first list of at most [n] entries. Does not mutate. *)

