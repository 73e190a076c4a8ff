type t = {
  disk : Sim_disk.t;
  cost : Cost_model.t; (* [Sim_disk.cost disk], held to spare a call per db hit *)
  fields : int;
  record_bytes : int;
  records_per_page : int;
  mutable page_table : int array; (* store page index -> disk page id *)
  mutable table_len : int;
  mutable count : int;
}

let nil = -1

let create disk ~fields =
  assert (fields >= 1 && fields * 8 <= Sim_disk.page_size disk);
  let record_bytes = fields * 8 in
  {
    disk;
    cost = Sim_disk.cost disk;
    fields;
    record_bytes;
    records_per_page = Sim_disk.page_size disk / record_bytes;
    page_table = Array.make 8 0;
    table_len = 0;
    count = 0;
  }

let clone t disk = { t with disk; cost = Sim_disk.cost disk; page_table = Array.copy t.page_table }

let count t = t.count

let locate t id =
  assert (id >= 0 && id < t.count);
  let chunk = id / t.records_per_page in
  (t.page_table.(chunk), (id - (chunk * t.records_per_page)) * t.record_bytes)

let allocate t =
  let id = t.count in
  let chunk = id / t.records_per_page in
  if chunk >= t.table_len then begin
    if t.table_len = Array.length t.page_table then begin
      let bigger = Array.make (2 * t.table_len) 0 in
      Array.blit t.page_table 0 bigger 0 t.table_len;
      t.page_table <- bigger
    end;
    t.page_table.(t.table_len) <- Sim_disk.allocate_page t.disk;
    t.table_len <- t.table_len + 1
  end;
  t.count <- t.count + 1;
  id

(* One field is one 64-bit load or store: the [%caml_bytes_*64u]
   primitives compile to a single unaligned move, and ocamlopt keeps
   the [int64] unboxed between the primitive and [Int64.to_int] /
   [Int64.of_int], so no box is allocated even without flambda. Fields
   are stored sign-extended and little-endian on every host (a
   big-endian host swaps); [Int64.to_int] drops the duplicated top
   bit, so the full 63-bit range (nil = -1 included) round-trips.
   Callers have checked the record id and field, so the loads are
   unchecked. *)
external load64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external store64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let unboxed_field bytes off field =
  let v = load64 bytes (off + (field * 8)) in
  Int64.to_int (if Sys.big_endian then swap64 v else v)

let store_field bytes off field v =
  let v = Int64.of_int v in
  store64 bytes (off + (field * 8)) (if Sys.big_endian then swap64 v else v)

let set t ~id ~field v =
  assert (field >= 0 && field < t.fields);
  let page, off = locate t id in
  Cost_model.record_db_hit t.cost;
  Sim_disk.with_page_write t.disk page (fun bytes -> store_field bytes off field v)

(* The readers locate inline rather than through [locate]: without
   flambda the (page, off) pair is a real tuple allocation on every
   record access. One division finds the page; the slot is the
   remainder by subtraction. *)
let get t ~id ~field =
  assert (id >= 0 && id < t.count && field >= 0 && field < t.fields);
  let chunk = id / t.records_per_page in
  let page = t.page_table.(chunk) in
  let off = (id - (chunk * t.records_per_page)) * t.record_bytes in
  Cost_model.record_db_hit t.cost;
  unboxed_field (Sim_disk.read_page t.disk page) off field

let read4 t ~id ~f0 ~f1 ~f2 ~f3 =
  assert (id >= 0 && id < t.count && f3 < t.fields);
  let chunk = id / t.records_per_page in
  let page = t.page_table.(chunk) in
  let off = (id - (chunk * t.records_per_page)) * t.record_bytes in
  Cost_model.record_db_hit t.cost;
  let bytes = Sim_disk.read_page t.disk page in
  ( unboxed_field bytes off f0,
    unboxed_field bytes off f1,
    unboxed_field bytes off f2,
    unboxed_field bytes off f3 )

(* Whole-record read into a caller-owned scratch array: one db hit,
   zero allocation. The chain walks reuse one scratch array for their
   inner loop. *)
let read_into t ~id dst =
  assert (id >= 0 && id < t.count && Array.length dst >= t.fields);
  let chunk = id / t.records_per_page in
  let page = t.page_table.(chunk) in
  let off = (id - (chunk * t.records_per_page)) * t.record_bytes in
  Cost_model.record_db_hit t.cost;
  let bytes = Sim_disk.read_page t.disk page in
  for f = 0 to t.fields - 1 do
    Array.unsafe_set dst f (unboxed_field bytes off f)
  done

let get_record t ~id =
  let record = Array.make t.fields 0 in
  read_into t ~id record;
  record

let set_record t ~id values =
  assert (Array.length values = t.fields);
  let page, off = locate t id in
  Cost_model.record_db_hit t.cost;
  Sim_disk.with_page_write t.disk page (fun bytes ->
      Array.iteri (fun f v -> store_field bytes off f v) values)
