(* Domain discipline: one dictionary belongs to one database instance.
   Any domain may read it; one domain writes it. [intern] enforces
   that single-writer rule with an assertion: the first interning
   domain pins itself as the writer, and a later intern of a new name
   from any other domain raises instead of silently racing.
   [adopt_writer] re-pins explicitly when ownership is handed over (a
   database built on one domain and mutated on another afterwards).

   Reads never lock: the writer publishes each new name as a fresh
   immutable snapshot through an [Atomic.t], and readers on any domain
   only ever see a published one. A new name copies the table, which
   is cheap because token dictionaries hold schema names: a handful
   of labels, types and property keys. *)

module Tbl = Hashtbl.Make (String)

type snapshot = {
  by_name : int Tbl.t; (* never mutated once published *)
  by_id : string array; (* exactly the interned names, in id order *)
}

type t = {
  snap : snapshot Atomic.t;
  mutable writer : int; (* Domain id of the pinned writer; -1 = unpinned *)
  mu : Mutex.t; (* serialises interns of new names and [adopt_writer] *)
}

let create () =
  { snap = Atomic.make { by_name = Tbl.create 1; by_id = [||] }; writer = -1; mu = Mutex.create () }

(* Published snapshots are never mutated, so the copy may start from
   the source's; a later intern on either side publishes a fresh one. *)
let clone t = { snap = Atomic.make (Atomic.get t.snap); writer = -1; mu = Mutex.create () }

let adopt_writer t = Mutex.protect t.mu (fun () -> t.writer <- (Domain.self () :> int))

let find t name = Tbl.find_opt (Atomic.get t.snap).by_name name

let intern_new t name =
  Mutex.protect t.mu (fun () ->
      let s = Atomic.get t.snap in
      match Tbl.find_opt s.by_name name with
      | Some id -> id
      | None ->
        let self = (Domain.self () :> int) in
        if t.writer = -1 then t.writer <- self
        else if t.writer <> self then
          invalid_arg
            (Printf.sprintf
               "Dict.intern: single-writer discipline violated (writer domain %d, \
                intern of %S from domain %d; call adopt_writer to hand over)"
               t.writer name self);
        let id = Array.length s.by_id in
        let by_name = Tbl.copy s.by_name in
        Tbl.replace by_name name id;
        Atomic.set t.snap { by_name; by_id = Array.append s.by_id [| name |] };
        id)

(* Existing names, the common case, take the lock-free path; [find]
   with [Not_found] rather than [find_opt] spares the option box. *)
let intern t name =
  match Tbl.find (Atomic.get t.snap).by_name name with
  | id -> id
  | exception Not_found -> intern_new t name

let find_exn t name =
  match find t name with
  | Some id -> id
  | None -> raise (Mgq_core.Types.Schema_error (Printf.sprintf "unknown name %S" name))

let name t id =
  let by_id = (Atomic.get t.snap).by_id in
  if id < 0 || id >= Array.length by_id then
    raise (Mgq_core.Types.Schema_error (Printf.sprintf "unknown token id %d" id))
  else by_id.(id)

let count t = Array.length (Atomic.get t.snap).by_id

let names t = Array.to_list (Atomic.get t.snap).by_id
