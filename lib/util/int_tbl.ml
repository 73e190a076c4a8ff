(* Equality and hashing are plain integer operations, inlined: no
   polymorphic compare and no [caml_hash] call per probe. Keys are
   dense ids, so the identity hash spreads them over the buckets. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)
