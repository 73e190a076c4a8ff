module Bitmap = Mgq_bitmap.Bitmap

type t = Bitmap.t

let empty () = Bitmap.create ()
let of_list = Bitmap.of_list
let to_list = Bitmap.to_list
let copy = Bitmap.copy
let add = Bitmap.add
let remove = Bitmap.remove
let contains = Bitmap.mem
let count = Bitmap.cardinality
let is_empty = Bitmap.is_empty
let union = Bitmap.union
let inter = Bitmap.inter
let difference = Bitmap.diff
let union_into = Bitmap.union_into
let iter = Bitmap.iter
let fold = Bitmap.fold
let exists = Bitmap.exists

let sample t rng =
  let n = count t in
  assert (n > 0);
  Bitmap.nth t (Mgq_util.Rng.int rng n)

let equal = Bitmap.equal
let memory_words = Bitmap.memory_words
let of_bitmap t = t
