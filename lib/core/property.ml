module Smap = Map.Make (String)

type t = Value.t Smap.t

let empty = Smap.empty

let set t key value =
  match value with Value.Null -> Smap.remove key t | v -> Smap.add key v t

let of_list bindings = List.fold_left (fun acc (k, v) -> set acc k v) empty bindings

let to_list t = Smap.bindings t

let get t key = match Smap.find_opt key t with Some v -> v | None -> Value.Null

let mem t key = Smap.mem key t
let cardinal = Smap.cardinal
let keys t = List.map fst (Smap.bindings t)

let union base overrides = Smap.union (fun _ _ override -> Some override) base overrides
