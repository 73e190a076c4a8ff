module Int_tbl = Mgq_util.Int_tbl

type t = {
  disk : Sim_disk.t;
  name : string;
  mutable page_table : int array; (* blob page index -> disk page id *)
  mutable table_len : int;
  mutable write_offset : int; (* next free logical byte *)
  mutable stored_bytes : int;
  mutable count : int;
  valid : int Int_tbl.t; (* handle -> payload length *)
}

let header_bytes = 4

let create disk ~name =
  {
    disk;
    name;
    page_table = Array.make 8 0;
    table_len = 0;
    write_offset = 0;
    stored_bytes = 0;
    count = 0;
    valid = Int_tbl.create 1024;
  }

let clone t disk =
  { t with disk; page_table = Array.copy t.page_table; valid = Int_tbl.copy t.valid }

let page_size t = Sim_disk.page_size t.disk

let ensure_page t chunk =
  while chunk >= t.table_len do
    if t.table_len = Array.length t.page_table then begin
      let bigger = Array.make (2 * t.table_len) 0 in
      Array.blit t.page_table 0 bigger 0 t.table_len;
      t.page_table <- bigger
    end;
    t.page_table.(t.table_len) <- Sim_disk.allocate_page t.disk;
    t.table_len <- t.table_len + 1
  done

(* Copy [len] bytes of [src] (from [src_off]) into the logical address
   space starting at [dst], page by page. *)
let write_span t dst src src_off len =
  let remaining = ref len in
  let s = ref src_off in
  let d = ref dst in
  while !remaining > 0 do
    let chunk = !d / page_size t in
    let within = !d mod page_size t in
    ensure_page t chunk;
    let burst = min !remaining (page_size t - within) in
    Sim_disk.with_page_write t.disk t.page_table.(chunk) (fun bytes ->
        Bytes.blit_string src !s bytes within burst);
    remaining := !remaining - burst;
    s := !s + burst;
    d := !d + burst
  done

let read_span t src len =
  let buf = Bytes.create len in
  let remaining = ref len in
  let s = ref src in
  let d = ref 0 in
  while !remaining > 0 do
    let chunk = !s / page_size t in
    let within = !s mod page_size t in
    let burst = min !remaining (page_size t - within) in
    Sim_disk.with_page_read t.disk t.page_table.(chunk) (fun bytes ->
        Bytes.blit bytes within buf !d burst);
    remaining := !remaining - burst;
    s := !s + burst;
    d := !d + burst
  done;
  Bytes.to_string buf

let append t s =
  let handle = t.write_offset in
  let len = String.length s in
  let header = Bytes.create header_bytes in
  Bytes.set_int32_le header 0 (Int32.of_int len);
  Cost_model.record_db_hit (Sim_disk.cost t.disk);
  write_span t handle (Bytes.to_string header) 0 header_bytes;
  write_span t (handle + header_bytes) s 0 len;
  t.write_offset <- handle + header_bytes + len;
  t.stored_bytes <- t.stored_bytes + len;
  t.count <- t.count + 1;
  Int_tbl.replace t.valid handle len;
  handle

let read t handle =
  match Int_tbl.find_opt t.valid handle with
  | None -> invalid_arg (Printf.sprintf "Blob_store.read (%s): bad handle %d" t.name handle)
  | Some len ->
    Cost_model.record_db_hit (Sim_disk.cost t.disk);
    read_span t (handle + header_bytes) len

let stored_bytes t = t.stored_bytes
let count t = t.count
