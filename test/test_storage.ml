(* Tests for the simulated storage substrate: cost accounting, LRU
   buffer-pool behaviour, record stores and blob stores. *)

module Cost_model = Mgq_storage.Cost_model
module Sim_disk = Mgq_storage.Sim_disk
module Record_store = Mgq_storage.Record_store
module Blob_store = Mgq_storage.Blob_store

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_counting () =
  let c = Cost_model.create () in
  Cost_model.record_db_hit c;
  Cost_model.record_db_hit ~n:4 c;
  Cost_model.record_page_hit c;
  Cost_model.record_page_fault c ~sequential:true;
  Cost_model.record_page_fault c ~sequential:false;
  Cost_model.record_page_flush ~n:2 c;
  let s = Cost_model.snapshot c in
  check Alcotest.int "db hits" 5 s.db_hits;
  check Alcotest.int "page hits" 1 s.page_hits;
  check Alcotest.int "page faults" 2 s.page_faults;
  check Alcotest.int "flushes" 2 s.page_flushes;
  check Alcotest.bool "time advanced" true (s.simulated_ns > 0)

let test_cost_seek_penalty () =
  let cfg = Cost_model.default_config in
  let a = Cost_model.create () in
  Cost_model.record_page_fault a ~sequential:true;
  let b = Cost_model.create () in
  Cost_model.record_page_fault b ~sequential:false;
  let da = (Cost_model.snapshot a).simulated_ns in
  let db = (Cost_model.snapshot b).simulated_ns in
  check Alcotest.int "random fault costs one seek more" cfg.seek_penalty_ns (db - da)

let test_cost_diff_and_reset () =
  let c = Cost_model.create () in
  Cost_model.record_db_hit ~n:10 c;
  let before = Cost_model.snapshot c in
  Cost_model.record_db_hit ~n:7 c;
  let delta = Cost_model.sub_counters (Cost_model.snapshot c) before in
  check Alcotest.int "delta db hits" 7 delta.db_hits;
  Cost_model.reset c;
  check Alcotest.int "reset" 0 (Cost_model.snapshot c).db_hits

(* ------------------------------------------------------------------ *)
(* Sim_disk / buffer pool                                              *)
(* ------------------------------------------------------------------ *)

let test_disk_allocate_and_rw () =
  let d = Sim_disk.create ~page_size:256 ~pool_pages:4 () in
  let p = Sim_disk.allocate_page d in
  Sim_disk.with_page_write d p (fun b -> Bytes.set_uint8 b 0 42);
  let v = Sim_disk.with_page_read d p (fun b -> Bytes.get_uint8 b 0) in
  check Alcotest.int "read back" 42 v;
  check Alcotest.int "one page" 1 (Sim_disk.page_count d);
  check Alcotest.int "disk bytes" 256 (Sim_disk.disk_bytes d)

let test_pool_hit_vs_fault () =
  let d = Sim_disk.create ~page_size:128 ~pool_pages:2 () in
  let p0 = Sim_disk.allocate_page d in
  let p1 = Sim_disk.allocate_page d in
  let p2 = Sim_disk.allocate_page d in
  (* Pool holds 2 pages; p0 was evicted by p2's allocation. *)
  let before = Cost_model.snapshot (Sim_disk.cost d) in
  Sim_disk.with_page_read d p2 (fun _ -> ());
  let after_hit = Cost_model.snapshot (Sim_disk.cost d) in
  check Alcotest.int "resident page is a hit" 1
    (Cost_model.sub_counters after_hit before).page_hits;
  Sim_disk.with_page_read d p0 (fun _ -> ());
  let after_fault = Cost_model.snapshot (Sim_disk.cost d) in
  check Alcotest.int "evicted page faults" 1
    (Cost_model.sub_counters after_fault after_hit).page_faults;
  ignore p1

let test_pool_lru_order () =
  let d = Sim_disk.create ~page_size:128 ~pool_pages:2 () in
  let p0 = Sim_disk.allocate_page d in
  let p1 = Sim_disk.allocate_page d in
  (* Touch p0 so p1 becomes LRU, then bring in a third page. *)
  Sim_disk.with_page_read d p0 (fun _ -> ());
  let p2 = Sim_disk.allocate_page d in
  let snap = Cost_model.snapshot (Sim_disk.cost d) in
  Sim_disk.with_page_read d p0 (fun _ -> ());
  let hits = (Cost_model.sub_counters (Cost_model.snapshot (Sim_disk.cost d)) snap).page_hits in
  check Alcotest.int "p0 survived (was MRU)" 1 hits;
  let snap2 = Cost_model.snapshot (Sim_disk.cost d) in
  Sim_disk.with_page_read d p1 (fun _ -> ());
  let faults =
    (Cost_model.sub_counters (Cost_model.snapshot (Sim_disk.cost d)) snap2).page_faults
  in
  check Alcotest.int "p1 was evicted (was LRU)" 1 faults;
  ignore p2

let test_dirty_eviction_flushes () =
  let d = Sim_disk.create ~page_size:128 ~pool_pages:1 () in
  let p0 = Sim_disk.allocate_page d in
  Sim_disk.with_page_write d p0 (fun b -> Bytes.set_uint8 b 3 7);
  let before = Cost_model.snapshot (Sim_disk.cost d) in
  (* Allocating a second page evicts dirty p0 -> flush. *)
  let _p1 = Sim_disk.allocate_page d in
  let delta = Cost_model.sub_counters (Cost_model.snapshot (Sim_disk.cost d)) before in
  check Alcotest.int "flush on dirty eviction" 1 delta.page_flushes;
  (* Data survives eviction (disk owns the bytes). *)
  let v = Sim_disk.with_page_read d p0 (fun b -> Bytes.get_uint8 b 3) in
  check Alcotest.int "data persisted" 7 v

let test_evict_all_cold_cache () =
  let d = Sim_disk.create ~page_size:128 ~pool_pages:8 () in
  let p = Sim_disk.allocate_page d in
  Sim_disk.with_page_read d p (fun _ -> ());
  check Alcotest.bool "resident" true (Sim_disk.resident_pages d > 0);
  Sim_disk.evict_all d;
  check Alcotest.int "cold" 0 (Sim_disk.resident_pages d);
  let before = Cost_model.snapshot (Sim_disk.cost d) in
  Sim_disk.with_page_read d p (fun _ -> ());
  let delta = Cost_model.sub_counters (Cost_model.snapshot (Sim_disk.cost d)) before in
  check Alcotest.int "first touch after cold is a fault" 1 delta.page_faults

let test_flush_all_clears_dirty () =
  let d = Sim_disk.create ~page_size:128 ~pool_pages:4 () in
  let p = Sim_disk.allocate_page d in
  Sim_disk.with_page_write d p (fun _ -> ());
  Sim_disk.flush_all d;
  let before = Cost_model.snapshot (Sim_disk.cost d) in
  Sim_disk.flush_all d;
  let delta = Cost_model.sub_counters (Cost_model.snapshot (Sim_disk.cost d)) before in
  check Alcotest.int "second flush is a no-op" 0 delta.page_flushes

let test_shrink_pool () =
  let d = Sim_disk.create ~page_size:128 ~pool_pages:8 () in
  for _ = 1 to 8 do
    ignore (Sim_disk.allocate_page d)
  done;
  check Alcotest.int "full pool" 8 (Sim_disk.resident_pages d);
  Sim_disk.set_pool_capacity d 3;
  check Alcotest.int "shrunk" 3 (Sim_disk.resident_pages d)

let prop_pool_never_exceeds_capacity =
  QCheck.Test.make ~name:"pool residency <= capacity" ~count:100
    QCheck.(pair (int_range 1 16) (list (int_range 0 63)))
    (fun (capacity, accesses) ->
      let d = Sim_disk.create ~page_size:64 ~pool_pages:capacity () in
      for _ = 1 to 64 do
        ignore (Sim_disk.allocate_page d)
      done;
      List.iter (fun p -> Sim_disk.with_page_read d p (fun _ -> ())) accesses;
      Sim_disk.resident_pages d <= capacity)

let prop_data_survives_any_access_pattern =
  QCheck.Test.make ~name:"page contents survive eviction" ~count:50
    QCheck.(list (pair (int_range 0 19) (int_range 0 255)))
    (fun writes ->
      let d = Sim_disk.create ~page_size:64 ~pool_pages:2 () in
      for _ = 1 to 20 do
        ignore (Sim_disk.allocate_page d)
      done;
      let model = Hashtbl.create 16 in
      List.iter
        (fun (p, v) ->
          Sim_disk.with_page_write d p (fun b -> Bytes.set_uint8 b 0 v);
          Hashtbl.replace model p v)
        writes;
      Hashtbl.fold
        (fun p v ok ->
          ok && Sim_disk.with_page_read d p (fun b -> Bytes.get_uint8 b 0) = v)
        model true)

(* ------------------------------------------------------------------ *)
(* Record_store                                                        *)
(* ------------------------------------------------------------------ *)

let test_record_store_roundtrip () =
  let d = Sim_disk.create ~page_size:256 ~pool_pages:16 () in
  let s = Record_store.create d ~fields:4 in
  let a = Record_store.allocate s in
  let b = Record_store.allocate s in
  Record_store.set s ~id:a ~field:0 42;
  Record_store.set s ~id:a ~field:3 (-7);
  Record_store.set s ~id:b ~field:1 99;
  check Alcotest.int "a.0" 42 (Record_store.get s ~id:a ~field:0);
  check Alcotest.int "a.3 negative" (-7) (Record_store.get s ~id:a ~field:3);
  check Alcotest.int "b.1" 99 (Record_store.get s ~id:b ~field:1);
  check Alcotest.int "zero default" 0 (Record_store.get s ~id:b ~field:0);
  check Alcotest.int "count" 2 (Record_store.count s)

let test_record_store_whole_record () =
  let d = Sim_disk.create ~page_size:256 ~pool_pages:16 () in
  let s = Record_store.create d ~fields:3 in
  let id = Record_store.allocate s in
  Record_store.set_record s ~id [| 1; Record_store.nil; 12345678901 |];
  check Alcotest.(array int) "record roundtrip"
    [| 1; Record_store.nil; 12345678901 |]
    (Record_store.get_record s ~id)

let test_record_store_many_pages () =
  let d = Sim_disk.create ~page_size:128 ~pool_pages:4 () in
  let s = Record_store.create d ~fields:2 in
  let n = 1000 in
  for i = 0 to n - 1 do
    let id = Record_store.allocate s in
    Record_store.set s ~id ~field:0 (i * 3);
    Record_store.set s ~id ~field:1 (i * 3 + 1)
  done;
  let ok = ref true in
  for id = 0 to n - 1 do
    if
      Record_store.get s ~id ~field:0 <> id * 3
      || Record_store.get s ~id ~field:1 <> (id * 3) + 1
    then ok := false
  done;
  check Alcotest.bool "all records intact across pages" true !ok

let test_record_store_counts_db_hits () =
  let d = Sim_disk.create () in
  let s = Record_store.create d ~fields:1 in
  let id = Record_store.allocate s in
  let before = Cost_model.snapshot (Sim_disk.cost d) in
  Record_store.set s ~id ~field:0 5;
  ignore (Record_store.get s ~id ~field:0);
  let delta = Cost_model.sub_counters (Cost_model.snapshot (Sim_disk.cost d)) before in
  check Alcotest.int "two db hits" 2 delta.db_hits

let prop_record_store_model =
  QCheck.Test.make ~name:"record store matches array model" ~count:100
    QCheck.(list (triple (int_range 0 49) (int_range 0 2) int))
    (fun writes ->
      let d = Sim_disk.create ~page_size:128 ~pool_pages:2 () in
      let s = Record_store.create d ~fields:3 in
      for _ = 1 to 50 do
        ignore (Record_store.allocate s)
      done;
      let model = Array.make_matrix 50 3 0 in
      List.iter
        (fun (id, f, v) ->
          Record_store.set s ~id ~field:f v;
          model.(id).(f) <- v)
        writes;
      let ok = ref true in
      for id = 0 to 49 do
        for f = 0 to 2 do
          if Record_store.get s ~id ~field:f <> model.(id).(f) then ok := false
        done
      done;
      !ok)

(* Every write path against every read path, over the whole 63-bit
   range. Seven fields make 56-byte records: a 512-byte page holds 9
   of them, not a power of two, and 40 records span 5 pages. *)
type record_write = Field of int * int * int | Whole of int * int array

let prop_record_store_full_range =
  let records = 40 and fields = 7 in
  let value = QCheck.Gen.(frequency [ (3, int); (1, oneofl [ min_int; max_int; Record_store.nil; 0 ]) ]) in
  let write =
    QCheck.Gen.(
      oneof
        [
          map3 (fun id f v -> Field (id, f, v)) (int_bound (records - 1)) (int_bound (fields - 1)) value;
          map2 (fun id vs -> Whole (id, vs)) (int_bound (records - 1)) (array_size (return fields) value);
        ])
  in
  let print = function
    | Field (id, f, v) -> Printf.sprintf "set %d.%d <- %d" id f v
    | Whole (id, vs) ->
      Printf.sprintf "set_record %d <- [%s]" id
        (String.concat "; " (Array.to_list (Array.map string_of_int vs)))
  in
  QCheck.Test.make ~name:"record fields round-trip the full int range" ~count:200
    (QCheck.make ~print:(QCheck.Print.list print) QCheck.Gen.(list write))
    (fun writes ->
      let d = Sim_disk.create ~page_size:512 ~pool_pages:2 () in
      let s = Record_store.create d ~fields in
      for _ = 1 to records do
        ignore (Record_store.allocate s)
      done;
      let model = Array.make_matrix records fields 0 in
      List.iter
        (function
          | Field (id, f, v) ->
            Record_store.set s ~id ~field:f v;
            model.(id).(f) <- v
          | Whole (id, vs) ->
            Record_store.set_record s ~id vs;
            model.(id) <- Array.copy vs)
        writes;
      let scratch = Array.make fields 0 in
      List.for_all
        (fun id ->
          let m = model.(id) in
          Record_store.read_into s ~id scratch;
          let a, b, c, e = Record_store.read4 s ~id ~f0:0 ~f1:2 ~f2:4 ~f3:6 in
          let g = Record_store.read4 s ~id ~f0:3 ~f1:4 ~f2:5 ~f3:6 in
          scratch = m
          && Record_store.get_record s ~id = m
          && List.for_all (fun f -> Record_store.get s ~id ~field:f = m.(f)) (List.init fields Fun.id)
          && (a, b, c, e) = (m.(0), m.(2), m.(4), m.(6))
          && g = (m.(3), m.(4), m.(5), m.(6)))
        (List.init records Fun.id))

(* ------------------------------------------------------------------ *)
(* Blob_store                                                          *)
(* ------------------------------------------------------------------ *)

let test_blob_roundtrip () =
  let d = Sim_disk.create ~page_size:64 ~pool_pages:4 () in
  let b = Blob_store.create d ~name:"strings" in
  let h1 = Blob_store.append b "hello" in
  let h2 = Blob_store.append b "" in
  let h3 = Blob_store.append b (String.make 500 'x') in
  check Alcotest.string "short" "hello" (Blob_store.read b h1);
  check Alcotest.string "empty" "" (Blob_store.read b h2);
  check Alcotest.string "spanning pages" (String.make 500 'x') (Blob_store.read b h3);
  check Alcotest.int "count" 3 (Blob_store.count b);
  check Alcotest.int "payload bytes" 505 (Blob_store.stored_bytes b)

let test_blob_bad_handle () =
  let d = Sim_disk.create () in
  let b = Blob_store.create d ~name:"s" in
  ignore (Blob_store.append b "x");
  check Alcotest.bool "bad handle rejected" true
    (try
       ignore (Blob_store.read b 999);
       false
     with Invalid_argument _ -> true)

let prop_blob_roundtrip =
  QCheck.Test.make ~name:"blob store roundtrips arbitrary strings" ~count:100
    QCheck.(list (string_gen Gen.printable))
    (fun strings ->
      let d = Sim_disk.create ~page_size:64 ~pool_pages:2 () in
      let b = Blob_store.create d ~name:"p" in
      let handles = List.map (Blob_store.append b) strings in
      List.for_all2 (fun h s -> Blob_store.read b h = s) handles strings)

(* ------------------------------------------------------------------ *)
(* Sim_disk against a reference LRU                                    *)
(* ------------------------------------------------------------------ *)

(* A naive exact LRU over an association list, most recently used
   first, with the same charging rules as the pool: hit, fault
   (sequential when adjacent to or equal to the last faulted page),
   flush of a dirty victim, checkpoint burst at the threshold. *)
module Lru_model = struct
  type t = {
    mutable lru : (int * bool) list; (* (page, dirty), MRU first *)
    mutable capacity : int;
    mutable pages : int;
    mutable last_fault : int;
    mutable hits : int;
    mutable faults : int;
    mutable seq_faults : int;
    mutable flushes : int;
    threshold : int option;
  }

  let create ~capacity ~threshold =
    {
      lru = [];
      capacity = max 1 capacity;
      pages = 0;
      last_fault = -100;
      hits = 0;
      faults = 0;
      seq_faults = 0;
      flushes = 0;
      threshold;
    }

  let dirty m = List.length (List.filter snd m.lru)

  let rec enforce m =
    if List.length m.lru > m.capacity then begin
      match List.rev m.lru with
      | (_, d) :: rest ->
        if d then m.flushes <- m.flushes + 1;
        m.lru <- List.rev rest;
        enforce m
      | [] -> ()
    end

  let flush m =
    m.flushes <- m.flushes + dirty m;
    m.lru <- List.map (fun (p, _) -> (p, false)) m.lru

  let checkpoint m =
    match m.threshold with Some t when dirty m >= t -> flush m | _ -> ()

  let access m page ~write =
    (match List.assoc_opt page m.lru with
    | Some d ->
      m.hits <- m.hits + 1;
      m.lru <- (page, d || write) :: List.remove_assoc page m.lru
    | None ->
      m.faults <- m.faults + 1;
      if page = m.last_fault + 1 || page = m.last_fault then m.seq_faults <- m.seq_faults + 1;
      m.last_fault <- page;
      m.lru <- (page, write) :: m.lru;
      enforce m);
    if write then checkpoint m

  let allocate m =
    m.lru <- (m.pages, true) :: m.lru;
    m.pages <- m.pages + 1;
    enforce m;
    checkpoint m

  let empty m =
    m.lru <- [];
    m.last_fault <- -100
end

type disk_op =
  | Read of int
  | Write of int
  | Allocate
  | Flush_all
  | Evict_all
  | Set_capacity of int
  | Reopen

let show_disk_op = function
  | Read i -> Printf.sprintf "read %d" i
  | Write i -> Printf.sprintf "write %d" i
  | Allocate -> "allocate"
  | Flush_all -> "flush_all"
  | Evict_all -> "evict_all"
  | Set_capacity c -> Printf.sprintf "set_capacity %d" c
  | Reopen -> "reopen"

let disk_op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun i -> Read i) (int_bound 63));
        (5, map (fun i -> Write i) (int_bound 63));
        (3, return Allocate);
        (1, return Flush_all);
        (1, return Evict_all);
        (1, map (fun c -> Set_capacity c) (int_range 1 10));
        (1, return Reopen);
      ])

let prop_sim_disk_matches_lru_model =
  QCheck.Test.make ~name:"pool matches a reference LRU" ~count:300
    QCheck.(
      make
        ~print:(fun (cap, thr, ops) ->
          Printf.sprintf "capacity %d, checkpoint %s: %s" cap
            (match thr with None -> "-" | Some t -> string_of_int t)
            (String.concat "; " (List.map show_disk_op ops)))
        Gen.(
          triple (int_range 1 6) (opt (int_range 1 5)) (list_size (int_range 1 120) disk_op_gen)))
    (fun (capacity, threshold, ops) ->
      (* Only seeks cost simulated time, so simulated_ns counts them. *)
      let config =
        {
          Cost_model.record_access_ns = 0;
          page_hit_ns = 0;
          page_fault_ns = 0;
          page_flush_ns = 0;
          seek_penalty_ns = 1;
        }
      in
      let d =
        Sim_disk.create ~config ~page_size:16 ~pool_pages:capacity
          ?checkpoint_dirty_pages:threshold ()
      in
      let m = Lru_model.create ~capacity ~threshold in
      let agrees () =
        let c = Cost_model.snapshot (Sim_disk.cost d) in
        c.page_hits = m.hits && c.page_faults = m.faults
        && c.simulated_ns = m.faults - m.seq_faults
        && c.page_flushes = m.flushes
        && Sim_disk.resident_pages d = List.length m.lru
        && Sim_disk.dirty_pages d = Lru_model.dirty m
      in
      let step op =
        (match op with
        | (Read i | Write i) when m.pages = 0 -> ignore i
        | Read i ->
          let page = i mod m.pages in
          Sim_disk.with_page_read d page ignore;
          Lru_model.access m page ~write:false
        | Write i ->
          let page = i mod m.pages in
          Sim_disk.with_page_write d page ignore;
          Lru_model.access m page ~write:true
        | Allocate ->
          ignore (Sim_disk.allocate_page d : int);
          Lru_model.allocate m
        | Flush_all ->
          Sim_disk.flush_all d;
          Lru_model.flush m
        | Evict_all ->
          Sim_disk.evict_all d;
          Lru_model.flush m;
          Lru_model.empty m
        | Set_capacity c ->
          Sim_disk.set_pool_capacity d c;
          m.capacity <- c;
          Lru_model.enforce m
        | Reopen ->
          Sim_disk.reopen d;
          Lru_model.empty m);
        agrees ()
      in
      List.for_all step ops)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "cost-model",
      [
        Alcotest.test_case "counting" `Quick test_cost_counting;
        Alcotest.test_case "seek penalty" `Quick test_cost_seek_penalty;
        Alcotest.test_case "diff and reset" `Quick test_cost_diff_and_reset;
      ] );
    ( "sim-disk",
      [
        Alcotest.test_case "allocate and rw" `Quick test_disk_allocate_and_rw;
        Alcotest.test_case "hit vs fault" `Quick test_pool_hit_vs_fault;
        Alcotest.test_case "lru order" `Quick test_pool_lru_order;
        Alcotest.test_case "dirty eviction flushes" `Quick test_dirty_eviction_flushes;
        Alcotest.test_case "evict_all cold cache" `Quick test_evict_all_cold_cache;
        Alcotest.test_case "flush_all clears dirty" `Quick test_flush_all_clears_dirty;
        Alcotest.test_case "shrink pool" `Quick test_shrink_pool;
        qtest prop_pool_never_exceeds_capacity;
        qtest prop_data_survives_any_access_pattern;
        qtest prop_sim_disk_matches_lru_model;
      ] );
    ( "record-store",
      [
        Alcotest.test_case "roundtrip" `Quick test_record_store_roundtrip;
        Alcotest.test_case "whole record" `Quick test_record_store_whole_record;
        Alcotest.test_case "many pages" `Quick test_record_store_many_pages;
        Alcotest.test_case "counts db hits" `Quick test_record_store_counts_db_hits;
        qtest prop_record_store_model;
        qtest prop_record_store_full_range;
      ] );
    ( "blob-store",
      [
        Alcotest.test_case "roundtrip" `Quick test_blob_roundtrip;
        Alcotest.test_case "bad handle" `Quick test_blob_bad_handle;
        qtest prop_blob_roundtrip;
      ] );
  ]

let () = Alcotest.run "mgq_storage" suite
