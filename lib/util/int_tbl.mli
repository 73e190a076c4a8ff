(** A hash table keyed by ints (record and node ids, uids, handles),
    for the per-event lookups on the write path. *)

include Hashtbl.S with type key = int
