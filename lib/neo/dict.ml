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
   of labels, types and property keys.

   [find] keeps a one-entry memo of its last hit, matched by physical
   string equality: compiled query sites and schema constants pass the
   same string on every row, so a hot lookup costs one load and one
   compare instead of a string hash. The memo is one immutable pair
   published through an [Atomic.t], so a reader on any domain sees an
   old pair or a new one, never a mix. Only hits are memoised, and an
   id never changes once interned, so a memo hit is always right. *)

module Tbl = Hashtbl.Make (String)

type snapshot = {
  by_name : int Tbl.t; (* never mutated once published *)
  by_id : string array; (* exactly the interned names, in id order *)
}

type memo = { m_name : string; m_id : int option (* always [Some] once set *) }

type t = {
  snap : snapshot Atomic.t;
  last : memo Atomic.t;
  mutable writer : int; (* Domain id of the pinned writer; -1 = unpinned *)
  mu : Mutex.t; (* serialises interns of new names and [adopt_writer] *)
}

(* A fresh string no caller can hold, so the empty memo never hits. *)
let empty_memo = { m_name = String.make 1 '\000'; m_id = None }

let create () =
  {
    snap = Atomic.make { by_name = Tbl.create 1; by_id = [||] };
    last = Atomic.make empty_memo;
    writer = -1;
    mu = Mutex.create ();
  }

(* Published snapshots are never mutated, so the copy may start from
   the source's; a later intern on either side publishes a fresh one.
   The memo's pair holds in the copy too: same names, same ids. *)
let clone t =
  {
    snap = Atomic.make (Atomic.get t.snap);
    last = Atomic.make (Atomic.get t.last);
    writer = -1;
    mu = Mutex.create ();
  }

let adopt_writer t = Mutex.protect t.mu (fun () -> t.writer <- (Domain.self () :> int))

let find t name =
  let { m_name; m_id } = Atomic.get t.last in
  if m_name == name then m_id
  else
    match Tbl.find_opt (Atomic.get t.snap).by_name name with
    | Some _ as id ->
      Atomic.set t.last { m_name = name; m_id = id };
      id
    | None -> None

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

let name t id =
  let by_id = (Atomic.get t.snap).by_id in
  if id < 0 || id >= Array.length by_id then
    raise (Mgq_core.Types.Schema_error (Printf.sprintf "unknown token id %d" id))
  else by_id.(id)

let count t = Array.length (Atomic.get t.snap).by_id

let names t = Array.to_list (Atomic.get t.snap).by_id
