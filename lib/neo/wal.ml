module Sim_disk = Mgq_storage.Sim_disk
module Crc32 = Mgq_util.Crc32
module Obs = Mgq_obs.Obs
module Codec = Mgq_codec.Codec

let m_appends = Obs.counter "wal.appends"
let m_append_bytes = Obs.counter "wal.append_bytes"

type op =
  | Create_node of { id : int; label : string; props : (string * Mgq_core.Value.t) list }
  | Create_edge of {
      id : int;
      etype : string;
      src : int;
      dst : int;
      props : (string * Mgq_core.Value.t) list;
    }
  | Set_node_prop of { node : int; key : string; value : Mgq_core.Value.t }
  | Set_edge_prop of { edge : int; key : string; value : Mgq_core.Value.t }
  | Delete_edge of int
  | Delete_node of int
  | Densify of int
  | Create_index of { label : string; property : string }
  | Drop_index of { label : string; property : string }

type stop =
  | Clean
  | Torn_header
  | Truncated_payload of { lsn : int }
  | Crc_mismatch of { lsn : int }
  | Lsn_mismatch of { expected : int; found : int }

let stop_to_string = function
  | Clean -> "clean"
  | Torn_header -> "torn header"
  | Truncated_payload { lsn } -> Printf.sprintf "truncated payload at lsn %d" lsn
  | Crc_mismatch { lsn } -> Printf.sprintf "crc mismatch at lsn %d" lsn
  | Lsn_mismatch { expected; found } ->
    Printf.sprintf "lsn mismatch (expected %d, found %d)" expected found

(* Op payloads are codec-encoded (tag byte per op, zigzag ids,
   length-prefixed strings) rather than marshalled: the byte format
   is compiler-independent, byte-stable for fault injection, and
   cheap to ship to replicas as an opaque blob. *)

let encode_prop e (k, v) =
  Codec.Enc.string e k;
  Codec.Enc.value e v

let encode_op e = function
  | Create_node { id; label; props } ->
    Codec.Enc.u8 e 0;
    Codec.Enc.int e id;
    Codec.Enc.string e label;
    Codec.Enc.list e encode_prop props
  | Create_edge { id; etype; src; dst; props } ->
    Codec.Enc.u8 e 1;
    Codec.Enc.int e id;
    Codec.Enc.string e etype;
    Codec.Enc.int e src;
    Codec.Enc.int e dst;
    Codec.Enc.list e encode_prop props
  | Set_node_prop { node; key; value } ->
    Codec.Enc.u8 e 2;
    Codec.Enc.int e node;
    Codec.Enc.string e key;
    Codec.Enc.value e value
  | Set_edge_prop { edge; key; value } ->
    Codec.Enc.u8 e 3;
    Codec.Enc.int e edge;
    Codec.Enc.string e key;
    Codec.Enc.value e value
  | Delete_edge id ->
    Codec.Enc.u8 e 4;
    Codec.Enc.int e id
  | Delete_node id ->
    Codec.Enc.u8 e 5;
    Codec.Enc.int e id
  | Densify id ->
    Codec.Enc.u8 e 6;
    Codec.Enc.int e id
  | Create_index { label; property } ->
    Codec.Enc.u8 e 7;
    Codec.Enc.string e label;
    Codec.Enc.string e property
  | Drop_index { label; property } ->
    Codec.Enc.u8 e 8;
    Codec.Enc.string e label;
    Codec.Enc.string e property

let encode_ops ops =
  let e = Codec.Enc.create () in
  Codec.Enc.list e encode_op ops;
  Codec.Enc.contents e

let decode_prop d =
  let k = Codec.Dec.string d in
  let v = Codec.Dec.value d in
  (k, v)

let decode_op d =
  match Codec.Dec.u8 d with
  | 0 ->
    let id = Codec.Dec.int d in
    let label = Codec.Dec.string d in
    let props = Codec.Dec.list d decode_prop in
    Create_node { id; label; props }
  | 1 ->
    let id = Codec.Dec.int d in
    let etype = Codec.Dec.string d in
    let src = Codec.Dec.int d in
    let dst = Codec.Dec.int d in
    let props = Codec.Dec.list d decode_prop in
    Create_edge { id; etype; src; dst; props }
  | 2 ->
    let node = Codec.Dec.int d in
    let key = Codec.Dec.string d in
    let value = Codec.Dec.value d in
    Set_node_prop { node; key; value }
  | 3 ->
    let edge = Codec.Dec.int d in
    let key = Codec.Dec.string d in
    let value = Codec.Dec.value d in
    Set_edge_prop { edge; key; value }
  | 4 -> Delete_edge (Codec.Dec.int d)
  | 5 -> Delete_node (Codec.Dec.int d)
  | 6 -> Densify (Codec.Dec.int d)
  | 7 ->
    let label = Codec.Dec.string d in
    let property = Codec.Dec.string d in
    Create_index { label; property }
  | 8 ->
    let label = Codec.Dec.string d in
    let property = Codec.Dec.string d in
    Drop_index { label; property }
  | tag -> raise (Codec.Error (Printf.sprintf "Wal op: bad tag %d" tag))

let decode_ops payload =
  let d = Codec.Dec.of_string payload in
  let ops = Codec.Dec.list d decode_op in
  Codec.Dec.expect_end d;
  ops

type t = {
  disk : Sim_disk.t;
  mutable pages : int array; (* log page index -> disk page id *)
  mutable n_pages : int;
  mutable length : int; (* bytes appended since truncation *)
  mutable records : int;
  mutable base_lsn : int; (* lsn of the last record truncated away *)
  mutable offsets : int array; (* record index in this log -> byte offset *)
}

let magic = '\xA5'
let header_bytes = 17 (* magic(1) + lsn(8 LE) + len(4 LE) + crc(4 LE) *)

let create ?(base_lsn = 0) disk =
  {
    disk;
    pages = Array.make 8 0;
    n_pages = 0;
    length = 0;
    records = 0;
    base_lsn;
    offsets = Array.make 8 0;
  }

let clone t disk = { t with disk; pages = Array.copy t.pages; offsets = Array.copy t.offsets }

let records t = t.records
let length_bytes t = t.length
let base_lsn t = t.base_lsn
let last_lsn t = t.base_lsn + t.records

let ensure_capacity t bytes =
  let ps = Sim_disk.page_size t.disk in
  let needed = (bytes + ps - 1) / ps in
  while t.n_pages < needed do
    if t.n_pages = Array.length t.pages then begin
      let bigger = Array.make (2 * t.n_pages) 0 in
      Array.blit t.pages 0 bigger 0 t.n_pages;
      t.pages <- bigger
    end;
    t.pages.(t.n_pages) <- Sim_disk.allocate_page t.disk;
    t.n_pages <- t.n_pages + 1
  done

(* Write [src] at log offset [off], page chunk by page chunk: each
   chunk is one page write the fault plan can fail or crash. *)
let write_bytes t off src =
  let ps = Sim_disk.page_size t.disk in
  let len = Bytes.length src in
  ensure_capacity t (off + len);
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let page_idx = abs / ps and page_off = abs mod ps in
    let chunk = min (len - !pos) (ps - page_off) in
    let from = !pos in
    Sim_disk.with_page_write t.disk t.pages.(page_idx) (fun b ->
        Bytes.blit src from b page_off chunk);
    pos := !pos + chunk
  done

let read_bytes t off len =
  let ps = Sim_disk.page_size t.disk in
  let dst = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let page_idx = abs / ps and page_off = abs mod ps in
    let chunk = min (len - !pos) (ps - page_off) in
    let into = !pos in
    Sim_disk.with_page_read t.disk t.pages.(page_idx) (fun b ->
        Bytes.blit b page_off dst into chunk);
    pos := !pos + chunk
  done;
  dst

let zero_sentinel t off =
  write_bytes t off (Bytes.make header_bytes '\000')

let push_offset t off =
  if t.records = Array.length t.offsets then begin
    let bigger = Array.make (2 * t.records) 0 in
    Array.blit t.offsets 0 bigger 0 t.records;
    t.offsets <- bigger
  end;
  t.offsets.(t.records) <- off

let frame_of ~lsn payload =
  let len = String.length payload in
  let frame = Bytes.create (header_bytes + len) in
  Bytes.set frame 0 magic;
  Bytes.set_int64_le frame 1 (Int64.of_int lsn);
  Bytes.set_int32_le frame 9 (Int32.of_int len);
  Bytes.set_int32_le frame 13 (Crc32.digest payload);
  Bytes.blit_string payload 0 frame header_bytes len;
  frame

let append_ops t ops =
  let payload = encode_ops ops in
  let lsn = last_lsn t + 1 in
  let frame = frame_of ~lsn payload in
  write_bytes t t.length frame;
  let tail = t.length + Bytes.length frame in
  zero_sentinel t tail;
  (* The record is durable the moment its last frame byte lands; the
     sentinel only guards the scan. Update in-memory counters last. *)
  push_offset t t.length;
  t.length <- tail;
  t.records <- t.records + 1;
  Obs.Counter.incr m_appends;
  Obs.Counter.incr ~by:(Bytes.length frame) m_append_bytes;
  lsn

let corrupt_payload_byte t ~lsn =
  let idx = lsn - t.base_lsn - 1 in
  if idx < 0 || idx >= t.records then
    invalid_arg "Wal.corrupt_payload_byte: no such record";
  let off = t.offsets.(idx) + header_bytes in
  Sim_disk.with_faults_suspended t.disk (fun () ->
      let b = read_bytes t off 1 in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
      write_bytes t off b)

let truncate t =
  t.base_lsn <- t.base_lsn + t.records;
  t.length <- 0;
  t.records <- 0;
  if t.n_pages > 0 then
    Sim_disk.with_faults_suspended t.disk (fun () -> zero_sentinel t 0)

(* Scan intact frames of the log's pages from byte [from_off], whose
   first frame must carry lsn [expected]; folds [f]
   over each frame's raw payload and reports why the scan stopped.
   Every frame is re-validated (magic, lsn continuity, length, crc)
   so a torn tail or a corrupt shipment is distinguished from a clean
   end of log.

   The window is exact: when fewer than [header_bytes] remain, the
   residual is still read and classified — only all-zero padding (or
   zero residual, a frame ending exactly at a page boundary) is
   [Clean]; non-zero residual bytes are a frame cut short at the
   window edge and report [Torn_header]. An earlier version returned
   [Clean] without looking, silently trusting whatever prefix
   happened to parse. *)
let scan t ~from_off ~expected f init =
  let read = read_bytes t and limit = t.n_pages * Sim_disk.page_size t.disk in
  let rec step acc off expected =
    if off >= limit then (acc, Clean)
    else if off + header_bytes > limit then begin
      let tail = read off (limit - off) in
      (acc, if Bytes.for_all (fun c -> c = '\000') tail then Clean else Torn_header)
    end
    else begin
      let header = read off header_bytes in
      if Bytes.get header 0 <> magic then
        (acc, if Bytes.for_all (fun c -> c = '\000') header then Clean else Torn_header)
      else begin
        let lsn = Int64.to_int (Bytes.get_int64_le header 1) in
        if lsn <> expected then (acc, Lsn_mismatch { expected; found = lsn })
        else begin
          let len = Int32.to_int (Bytes.get_int32_le header 9) in
          let crc = Bytes.get_int32_le header 13 in
          if len < 0 || off + header_bytes + len > limit then
            (acc, Truncated_payload { lsn })
          else begin
            let payload = Bytes.to_string (read (off + header_bytes) len) in
            if Crc32.digest payload <> crc then (acc, Crc_mismatch { lsn })
            else step (f acc ~lsn payload) (off + header_bytes + len) (expected + 1)
          end
        end
      end
    end
  in
  step init from_off expected

let decoding f = fun acc ~lsn payload -> f acc ~lsn (decode_ops payload)

let fold_ops_stop t f init = scan t ~from_off:0 ~expected:(t.base_lsn + 1) (decoding f) init

let from_index t ~lsn =
  if lsn < t.base_lsn then
    invalid_arg
      (Printf.sprintf "Wal.fold_from: lsn %d predates the log base %d (compacted)" lsn
         t.base_lsn);
  lsn - t.base_lsn

let fold_from t ~lsn f init =
  let idx = from_index t ~lsn in
  if idx >= t.records then (init, Clean)
  else scan t ~from_off:t.offsets.(idx) ~expected:(lsn + 1) (decoding f) init

let fold_frames_from t ~lsn f init =
  let idx = from_index t ~lsn in
  if idx >= t.records then (init, Clean)
  else scan t ~from_off:t.offsets.(idx) ~expected:(lsn + 1) f init
