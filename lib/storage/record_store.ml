type t = {
  disk : Sim_disk.t;
  name : string;
  fields : int;
  record_bytes : int;
  records_per_page : int;
  mutable page_table : int array; (* store page index -> disk page id *)
  mutable table_len : int;
  mutable count : int;
}

let nil = -1

let create disk ~name ~fields =
  assert (fields >= 1 && fields * 8 <= Sim_disk.page_size disk);
  let record_bytes = fields * 8 in
  {
    disk;
    name;
    fields;
    record_bytes;
    records_per_page = Sim_disk.page_size disk / record_bytes;
    page_table = Array.make 8 0;
    table_len = 0;
    count = 0;
  }

let clone t disk = { t with disk; page_table = Array.copy t.page_table }

let name t = t.name
let field_count t = t.fields
let count t = t.count

let locate t id =
  assert (id >= 0 && id < t.count);
  let chunk = id / t.records_per_page in
  let slot = id mod t.records_per_page in
  (t.page_table.(chunk), slot * t.record_bytes)

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

let set t ~id ~field v =
  assert (field >= 0 && field < t.fields);
  let page, off = locate t id in
  Cost_model.record_db_hit (Sim_disk.cost t.disk);
  Sim_disk.with_page_write t.disk page (fun bytes ->
      Bytes.set_int64_le bytes (off + (field * 8)) (Int64.of_int v))

(* Decode one stored field without boxing: [Bytes.get_int64_le]
   allocates an [int64] block per read, which every record read would
   then pay. Fields are written as sign-extended 64-bit
   little-endian ints; rebuilding from bytes drops the duplicated top
   bit and keeps bit 62 as the tag-free OCaml sign, so the full
   63-bit range (nil = -1 included) round-trips. *)
let unboxed_field bytes off field =
  let base = off + (field * 8) in
  (* Spelled out byte by byte: a local helper closure would be a heap
     allocation per read without flambda, defeating the point. *)
  Char.code (Bytes.unsafe_get bytes base)
  lor (Char.code (Bytes.unsafe_get bytes (base + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get bytes (base + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get bytes (base + 3)) lsl 24)
  lor (Char.code (Bytes.unsafe_get bytes (base + 4)) lsl 32)
  lor (Char.code (Bytes.unsafe_get bytes (base + 5)) lsl 40)
  lor (Char.code (Bytes.unsafe_get bytes (base + 6)) lsl 48)
  lor (Char.code (Bytes.unsafe_get bytes (base + 7)) lsl 56)

(* The readers locate inline rather than through [locate]: without
   flambda the (page, off) pair is a real tuple allocation on every
   record access. *)
let get t ~id ~field =
  assert (id >= 0 && id < t.count && field >= 0 && field < t.fields);
  let page = t.page_table.(id / t.records_per_page) in
  let off = id mod t.records_per_page * t.record_bytes in
  Cost_model.record_db_hit (Sim_disk.cost t.disk);
  unboxed_field (Sim_disk.read_page t.disk page) off field

let read4 t ~id ~f0 ~f1 ~f2 ~f3 =
  assert (id >= 0 && id < t.count && f3 < t.fields);
  let page = t.page_table.(id / t.records_per_page) in
  let off = id mod t.records_per_page * t.record_bytes in
  Cost_model.record_db_hit (Sim_disk.cost t.disk);
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
  let page = t.page_table.(id / t.records_per_page) in
  let off = id mod t.records_per_page * t.record_bytes in
  Cost_model.record_db_hit (Sim_disk.cost t.disk);
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
  Cost_model.record_db_hit (Sim_disk.cost t.disk);
  Sim_disk.with_page_write t.disk page (fun bytes ->
      Array.iteri
        (fun f v -> Bytes.set_int64_le bytes (off + (f * 8)) (Int64.of_int v))
        values)
