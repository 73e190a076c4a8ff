(* Plain mutable state, unlocked: a dictionary belongs to one database
   instance, which has one owner at a time. [by_id] is replaced, never
   written in place, so a clone may share it.

   [find] keeps a one-entry memo of its last hit, matched by physical
   string equality: compiled query sites and schema constants pass the
   same string on every row, so a hot lookup costs one load and one
   compare instead of a string hash. The memo is two plain fields, the
   name and the [Some id] already built for it, so a hit allocates
   nothing. Only hits are memoised, and an id never changes once
   interned, so a memo hit is always right. *)

module Tbl = Hashtbl.Make (String)

type t = {
  by_name : int Tbl.t;
  mutable by_id : string array; (* exactly the interned names, in id order *)
  mutable last_name : string;
  mutable last_id : int option; (* [Some] id of [last_name] once set *)
}

(* A fresh string no caller can hold, so the empty memo never hits. *)
let create () =
  { by_name = Tbl.create 16; by_id = [||]; last_name = String.make 1 '\000'; last_id = None }

let clone t = { t with by_name = Tbl.copy t.by_name }

let find t name =
  if t.last_name == name then t.last_id
  else
    match Tbl.find_opt t.by_name name with
    | Some _ as id ->
      t.last_name <- name;
      t.last_id <- id;
      id
    | None -> None

(* [find] with [Not_found] rather than [find_opt] spares the option box
   on the common case, an existing name. *)
let intern t name =
  match Tbl.find t.by_name name with
  | id -> id
  | exception Not_found ->
    let id = Array.length t.by_id in
    Tbl.replace t.by_name name id;
    t.by_id <- Array.append t.by_id [| name |];
    id

let name t id =
  if id < 0 || id >= Array.length t.by_id then
    raise (Mgq_core.Types.Schema_error (Printf.sprintf "unknown token id %d" id))
  else t.by_id.(id)

let names t = Array.to_list t.by_id
