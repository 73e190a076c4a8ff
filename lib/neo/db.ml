module Cost_model = Mgq_storage.Cost_model
module Sim_disk = Mgq_storage.Sim_disk
module Record_store = Mgq_storage.Record_store
module Blob_store = Mgq_storage.Blob_store
module Value = Mgq_core.Value
module Property = Mgq_core.Property
module Obs = Mgq_obs.Obs
module Catalog = Mgq_catalog.Catalog
module Codec = Mgq_codec.Codec

let m_commits = Obs.counter "db.commits"
let m_rollbacks = Obs.counter "db.rollbacks"
let m_tx_conflicts = Obs.counter "db.tx_conflicts"
let m_fsyncs = Obs.counter "wal.fsyncs"
let m_recovered_frames = Obs.counter "wal.recovered_frames"
open Mgq_core.Types

let nil = Record_store.nil

(* Node record fields. *)
let n_in_use = 0
let n_label = 1
let n_first_out = 2 (* sparse: first outgoing rel; dense: first group record *)
let n_first_in = 3 (* sparse only *)
let n_first_prop = 4
let n_out_degree = 5
let n_in_degree = 6
let n_dense = 7 (* 1 after conversion to relationship groups *)
let node_fields = 8

(* Relationship group records (dense nodes): one per (node, type),
   chained, holding that type's out- and in-chain heads — Neo4j's
   dense-node optimisation, which the import tool's "computing the
   dense nodes" step prepares. *)
let _g_in_use = 0 (* groups are never tombstoned individually *)
let g_type = 1
let g_next = 2
let g_first_out = 3
let g_first_in = 4
let g_out_count = 5 (* chain lengths, so typed degree is O(1) on dense nodes *)
let g_in_count = 6
let group_fields = 7

(* Relationship record fields. *)
let r_in_use = 0
let r_type = 1
let r_src = 2
let r_dst = 3
let r_next_out = 4
let r_next_in = 5
let r_first_prop = 6
let rel_fields = 7

(* Property record fields. *)
let p_key = 0
let p_tag = 1
let p_payload = 2
let p_next = 3
let prop_fields = 4

(* Value tags in property records. *)
let tag_bool = 1
let tag_int = 2
let tag_float = 3
let tag_string = 4

type label_scan = { mutable ids : int array; mutable len : int }

type index_key = { ilabel : int; ikey : int }

(* ---------------- transaction bookkeeping types ---------------- *)

exception Tx_error of string

type conflict = { c_txn : int; c_key : string; c_reason : string }

exception Tx_conflict of conflict

type isolation = Snapshot | Read_uncommitted

(* A versionable unit of state: record existence or one property
   slot. Structural state (chain linkage, degrees, label scans) is
   not versioned separately — it is derived from these. *)
type vkey =
  | K_node of int
  | K_edge of int
  | K_nprop of int * int (* node, key id *)
  | K_eprop of int * int (* edge, key id *)

(* Committed-state value of a key {e before} its writer's update.
   Writes land in place; a version entry keeps the before-image so
   snapshots older than the writer still resolve, and doubles as the
   writer's undo record. *)
type before = B_absent | B_present | B_value of Value.t

type ventry = {
  ve_writer : int; (* txn id; -1 for an auto-committed write *)
  mutable ve_commit_ts : int; (* -1 while the writer is uncommitted *)
  ve_before : before;
  ve_undo : unit -> unit; (* physical restore, for rollback *)
}

type txn = {
  tx_id : int;
  tx_begin_ts : int; (* snapshot: commits with ts <= this are visible *)
  mutable tx_open : bool;
  mutable tx_entries : (vkey * ventry) list; (* write set, newest first *)
  mutable tx_redo : Wal.op list; (* reversed; committed as one record *)
  mutable tx_stats : Catalog.event list; (* reversed; applied at commit *)
}

(* Creation parameters, kept so [recover] can rebuild an identically
   configured empty database when no snapshot exists. *)
type settings = {
  s_config : Cost_model.config;
  s_pool_pages : int option;
  s_checkpoint_dirty_pages : int option;
  s_dense_node_threshold : int;
  s_wal : bool;
}

type t = {
  disk : Sim_disk.t;
  nodes : Record_store.t; (* neostore.nodestore *)
  rels : Record_store.t; (* neostore.relationshipstore *)
  props : Record_store.t; (* neostore.propertystore *)
  groups : Record_store.t; (* neostore.relationshipgroupstore *)
  strings : Blob_store.t;
  dense_node_threshold : int;
  label_dict : Dict.t;
  type_dict : Dict.t;
  key_dict : Dict.t;
  label_scans : (int, label_scan) Hashtbl.t;
  (* Deleted nodes whose label-scan entries stay while a transaction is
     open (node -> label id): an older snapshot may still see them. *)
  scan_dead : (int, int) Hashtbl.t;
  type_counts : (int, int ref) Hashtbl.t;
  indexes : (index_key, (int, node_id list ref) Hashtbl.t) Hashtbl.t;
  settings : settings;
  mutable node_count : int;
  mutable edge_count : int;
  mutable wal : Wal.t option;
  catalog : Catalog.t;
  (* MVCC state. [versions] is transient: it is filled only while a
     second viewer exists ([shared]) and cleared whenever the last open
     transaction closes, so it is empty at every save point. *)
  mutable ts : int; (* commit timestamp counter *)
  mutable next_txn_id : int;
  mutable active : txn option; (* the txn whose snapshot reads resolve *)
  mutable open_txns : txn list;
  versions : (vkey, ventry list ref) Hashtbl.t; (* newest entry first *)
  mutable shared : bool; (* writes publish to [versions] *)
  mutable isolation : isolation;
  (* Scratch for the packed chain walks ([Record_store.read_into]):
     one array, sized for the widest record read through it, reused
     across every step, so the walks themselves allocate nothing.
     Each step copies out what it needs before the next read. *)
  scratch : int array;
}

let create ?config ?pool_pages ?checkpoint_dirty_pages ?(dense_node_threshold = 50)
    ?(wal = true) () =
  let disk = Sim_disk.create ?config ?pool_pages ?checkpoint_dirty_pages () in
  let t =
    {
      disk;
      nodes = Record_store.create disk ~fields:node_fields;
      rels = Record_store.create disk ~fields:rel_fields;
      props = Record_store.create disk ~fields:prop_fields;
      groups = Record_store.create disk ~fields:group_fields;
      strings = Blob_store.create disk ~name:"neostore.stringstore";
      dense_node_threshold = max 2 dense_node_threshold;
      label_dict = Dict.create ();
      type_dict = Dict.create ();
      key_dict = Dict.create ();
      label_scans = Hashtbl.create 8;
      scan_dead = Hashtbl.create 8;
      type_counts = Hashtbl.create 8;
      indexes = Hashtbl.create 8;
      settings =
        {
          s_config = Cost_model.config (Sim_disk.cost disk);
          s_pool_pages = pool_pages;
          s_checkpoint_dirty_pages = checkpoint_dirty_pages;
          s_dense_node_threshold = dense_node_threshold;
          s_wal = wal;
        };
      node_count = 0;
      edge_count = 0;
      wal = None;
      catalog = Catalog.create ();
      ts = 0;
      next_txn_id = 1;
      active = None;
      open_txns = [];
      versions = Hashtbl.create 64;
      shared = false;
      isolation = Snapshot;
      scratch = Array.make (max prop_fields rel_fields) 0;
    }
  in
  if wal then t.wal <- Some (Wal.create disk);
  t

(* A base backup: every structure is copied, so the clone and [t]
   evolve independently from here. The version table is empty whenever
   no transaction is open, so it starts fresh. *)
let clone t =
  if t.open_txns <> [] then raise (Tx_error "Db.clone: transaction open");
  let disk = Sim_disk.clone t.disk in
  let copy_tbl f tbl =
    let c = Hashtbl.copy tbl in
    Hashtbl.filter_map_inplace (fun _ v -> Some (f v)) c;
    c
  in
  {
    t with
    disk;
    nodes = Record_store.clone t.nodes disk;
    rels = Record_store.clone t.rels disk;
    props = Record_store.clone t.props disk;
    groups = Record_store.clone t.groups disk;
    strings = Blob_store.clone t.strings disk;
    label_dict = Dict.clone t.label_dict;
    type_dict = Dict.clone t.type_dict;
    key_dict = Dict.clone t.key_dict;
    label_scans = copy_tbl (fun s -> { ids = Array.copy s.ids; len = s.len }) t.label_scans;
    scan_dead = Hashtbl.create 8;
    type_counts = copy_tbl (fun r -> ref !r) t.type_counts;
    indexes = copy_tbl (copy_tbl (fun r -> ref !r)) t.indexes;
    wal = Option.map (fun w -> Wal.clone w disk) t.wal;
    catalog = Catalog.copy t.catalog;
    versions = Hashtbl.create 64;
    scratch = Array.make (Array.length t.scratch) 0;
  }

let disk t = t.disk
let cost t = Sim_disk.cost t.disk
let wal t = t.wal
let last_lsn t = match t.wal with Some w -> Wal.last_lsn w | None -> 0

(* ---------------- persistence ---------------- *)

exception Corrupt_snapshot of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt_snapshot msg)) fmt

let save_magic = "MGQNEO2\n"
let save_version = 6 (* v6: codec-encoded logical image replaces Marshal *)

(* [save] and [load] live below the write path: a v6 snapshot is a
   logical image that loads by replaying creations through the
   ordinary mutators. *)

let labels t = Dict.names t.label_dict
let edge_types t = Dict.names t.type_dict
let property_keys t = Dict.names t.key_dict

(* ---------------- label scan store ---------------- *)

let scan_for t label_id =
  match Hashtbl.find_opt t.label_scans label_id with
  | Some scan -> scan
  | None ->
    let scan = { ids = Array.make 16 0; len = 0 } in
    Hashtbl.replace t.label_scans label_id scan;
    scan

let scan_add t label_id node =
  let scan = scan_for t label_id in
  if scan.len = Array.length scan.ids then begin
    let bigger = Array.make (2 * scan.len) 0 in
    Array.blit scan.ids 0 bigger 0 scan.len;
    scan.ids <- bigger
  end;
  scan.ids.(scan.len) <- node;
  scan.len <- scan.len + 1

let scan_remove t label_id node =
  let scan = scan_for t label_id in
  let rec find i = if i >= scan.len then -1 else if scan.ids.(i) = node then i else find (i + 1) in
  let i = find 0 in
  if i >= 0 then begin
    scan.ids.(i) <- scan.ids.(scan.len - 1);
    scan.len <- scan.len - 1
  end

(* ---------------- transactions (MVCC-lite) ---------------- *)

(* Writes land in place; each transactional write records a version
   entry with the key's before-image in the transaction's write set,
   which doubles as its undo log. A lone transaction's view is the
   in-place state, so its entries stay with it. When a second viewer
   appears ([begin_txn] while one is open, or [deactivate]) the open
   write sets are published to [versions], a chain per key, and later
   writes publish as they happen until the last transaction closes.

   Readers resolve a key by walking its chain newest-first: entries
   written by the viewing transaction, or committed at or before its
   begin timestamp, are visible; the key's value in the viewer's
   snapshot is the before-image of the {e oldest invisible} entry (the
   invisible entries form a prefix of the chain — writers are serial
   per key), or the in-place value when every entry is visible.

   Conflicts are checked once, at the write ([claim_write]). Under
   [Read_uncommitted] nothing is published, so nothing is resolved or
   checked — the undo-list baseline the consistency audit uses to
   demonstrate the anomalies SI removes. *)

let describe_vkey t = function
  | K_node id -> Printf.sprintf "node %d" id
  | K_edge id -> Printf.sprintf "edge %d" id
  | K_nprop (id, k) -> Printf.sprintf "node %d.%s" id (Dict.name t.key_dict k)
  | K_eprop (id, k) -> Printf.sprintf "edge %d.%s" id (Dict.name t.key_dict k)

let in_tx t = t.active <> None
let isolation t = t.isolation

let set_isolation t mode =
  if t.open_txns <> [] then raise (Tx_error "Db.set_isolation: transactions open");
  t.isolation <- mode

let open_txn_count t = List.length t.open_txns

(* The table is cleared as soon as no transaction is open: any later
   snapshot begins after every commit recorded here, so nothing old
   enough to need a before-image can ever look again — nor see a
   deleted node, so its label-scan entry goes too. *)
let gc_versions t =
  if t.open_txns = [] then begin
    if t.shared then begin
      Hashtbl.reset t.versions;
      t.shared <- false
    end;
    if Hashtbl.length t.scan_dead > 0 then begin
      Hashtbl.iter (fun node label_id -> scan_remove t label_id node) t.scan_dead;
      Hashtbl.reset t.scan_dead
    end
  end

(* Reads and writes consult version chains only while some exist;
   otherwise every viewer's state is the in-place one. *)
let versioned t = Hashtbl.length t.versions > 0

let entry_visible t e =
  match t.active with
  | Some txn when e.ve_writer = txn.tx_id -> true
  | Some txn -> e.ve_commit_ts >= 0 && e.ve_commit_ts <= txn.tx_begin_ts
  | None -> e.ve_commit_ts >= 0 (* no snapshot: read-committed latest *)

(* Resolve key [k] for the current viewer: [base] reads the in-place
   state, [before] projects a before-image. *)
let resolve t k ~base ~before =
  match Hashtbl.find_opt t.versions k with
  | None -> base ()
  | Some entries ->
    let rec walk oldest_invisible = function
      | [] -> oldest_invisible
      | e :: older ->
        if entry_visible t e then oldest_invisible else walk (Some e) older
    in
    (match walk None !entries with
    | None -> base ()
    | Some e -> before e.ve_before)

let conflict t k reason victim =
  Obs.Counter.incr m_tx_conflicts;
  raise (Tx_conflict { c_txn = victim; c_key = describe_vkey t k; c_reason = reason })

(* Pre-write conflict check, before any physical mutation, against the
   head of the key's chain. An uncommitted entry by another writer
   claims the key: the second updater loses immediately (like
   Postgres's SI update conflict). A committed head newer than our
   snapshot means the key was overwritten after it; writers are serial
   per key, so the head carries the key's last commit. A claimed key
   can take no other commit, so commit validates nothing. *)
let claim_write t k =
  if versioned t then
    match Hashtbl.find_opt t.versions k with
    | Some { contents = e :: _ } -> (
      match t.active with
      | Some txn when e.ve_writer = txn.tx_id -> ()
      | Some txn when e.ve_commit_ts < 0 ->
        conflict t k "write-write conflict with uncommitted transaction" txn.tx_id
      | Some txn when e.ve_commit_ts > txn.tx_begin_ts ->
        conflict t k "overwritten by a commit after this snapshot" txn.tx_id
      | None when e.ve_commit_ts < 0 ->
        conflict t k "auto-commit write against uncommitted transaction" (-1)
      | Some _ | None -> ())
    | _ -> ()

let publish t k e =
  match Hashtbl.find_opt t.versions k with
  | Some l -> l := e :: !l
  | None -> Hashtbl.replace t.versions k (ref [ e ])

(* A second viewer appears: the open transactions' write sets become
   chains, oldest first, and from here every write publishes at once.
   Under [Read_uncommitted] nothing is ever published. *)
let share t =
  if (not t.shared) && t.isolation = Snapshot then begin
    t.shared <- true;
    List.iter
      (fun txn -> List.iter (fun (k, e) -> publish t k e) (List.rev txn.tx_entries))
      (List.rev t.open_txns)
  end

(* Register a write's before-image and undo. Inside a transaction the
   entry joins the write set, and the chains too once they are shared.
   An auto-commit write that runs while other transactions hold open
   snapshots leaves an already-committed entry so those snapshots keep
   resolving to the before-image. *)
let push_entry t k ~before_img ~undo =
  match t.active with
  | Some txn ->
    let e = { ve_writer = txn.tx_id; ve_commit_ts = -1; ve_before = before_img; ve_undo = undo } in
    txn.tx_entries <- (k, e) :: txn.tx_entries;
    if t.shared then publish t k e
  | None ->
    if t.shared then begin
      t.ts <- t.ts + 1;
      publish t k { ve_writer = -1; ve_commit_ts = t.ts; ve_before = before_img; ve_undo = ignore }
    end

(* ---- transaction lifecycle ---- *)

let begin_txn t =
  if t.open_txns <> [] then share t;
  let txn =
    {
      tx_id = t.next_txn_id;
      tx_begin_ts = t.ts;
      tx_open = true;
      tx_entries = [];
      tx_redo = [];
      tx_stats = [];
    }
  in
  t.next_txn_id <- t.next_txn_id + 1;
  t.open_txns <- txn :: t.open_txns;
  t.active <- Some txn;
  txn

let activate t txn =
  if not txn.tx_open then raise (Tx_error "Db.activate: transaction is not open");
  t.active <- Some txn

let deactivate t =
  if t.open_txns <> [] then share t;
  t.active <- None

let txn_id txn = txn.tx_id

let close_txn t txn =
  txn.tx_open <- false;
  t.open_txns <- List.filter (fun o -> o != txn) t.open_txns;
  (match t.active with Some a when a == txn -> t.active <- None | _ -> ());
  gc_versions t

let rollback_txn t txn =
  if not txn.tx_open then raise (Tx_error "Db.rollback_txn: transaction is not open");
  Obs.Counter.incr m_rollbacks;
  (* After a simulated crash the process is conceptually dead: no
     undo runs, recovery rebuilds from snapshot + WAL. Otherwise undo
     runs with injection paused — rollback models in-memory work the
     plan must not sabotage. Entries run newest-first; per-key claims
     guarantee no other live writer interleaved on these keys, so the
     before-images restore exactly. *)
  if not (Sim_disk.crashed t.disk) then
    Sim_disk.with_faults_suspended t.disk (fun () ->
        List.iter (fun (_, e) -> e.ve_undo ()) txn.tx_entries);
  if t.shared then
    List.iter
      (fun (k, _) ->
        match Hashtbl.find_opt t.versions k with
        | None -> ()
        | Some l ->
          l := List.filter (fun e -> not (e.ve_writer = txn.tx_id && e.ve_commit_ts < 0)) !l;
          if !l = [] then Hashtbl.remove t.versions k)
      txn.tx_entries;
  close_txn t txn

let commit_txn t txn =
  if not txn.tx_open then raise (Tx_error "Db.commit_txn: transaction is not open");
  (* Commit appends the transaction to the log: the durability point.
     With a WAL the append is real page traffic an armed fault plan can
     interrupt — in which case the transaction is NOT committed and
     stays open for rollback. The flush itself is also a decision
     point: a transiently failing log sync aborts the commit before the
     append. *)
  (match Sim_disk.fault_plan t.disk with
  | Some plan -> Mgq_storage.Fault.on_flush plan
  | None -> ());
  Cost_model.record_page_flush (cost t);
  Obs.Counter.incr m_fsyncs;
  (match t.wal with
  | Some w when txn.tx_redo <> [] ->
    Obs.Trace.with_span "db.commit.wal_append"
      ~attrs:[ ("ops", string_of_int (List.length txn.tx_redo)) ]
      (fun () -> ignore (Wal.append_ops w (List.rev txn.tx_redo) : int))
  | _ -> ());
  (* Durable: stamp the write set with one commit timestamp, making
     it visible to every later snapshot atomically. *)
  t.ts <- t.ts + 1;
  List.iter (fun (_, e) -> e.ve_commit_ts <- t.ts) txn.tx_entries;
  (* Statistics deltas land only once the transaction is durable; a
     failed append above leaves them buffered for rollback to drop. *)
  (match txn.tx_stats with
  | [] -> ()
  | events ->
    Obs.Trace.with_span "db.commit.catalog" (fun () ->
        List.iter (Catalog.apply t.catalog) (List.rev events)));
  close_txn t txn;
  Obs.Counter.incr m_commits

(* One transaction around [f], rejected while any other is open: the
   form imports, replication replay and Cypher writes use. *)
let with_tx t f =
  if t.open_txns <> [] then raise (Tx_error "Db.with_tx: transaction already open");
  let txn = begin_txn t in
  let result =
    try f ()
    with e ->
      if txn.tx_open then rollback_txn t txn;
      raise e
  in
  (try commit_txn t txn
   with e ->
     if txn.tx_open then rollback_txn t txn;
     raise e);
  result

(* Record a logical redo op. Inside a transaction it joins the
   transaction's record; outside, the call auto-commits as a
   single-op record. *)
let log_redo t op =
  match t.active with
  | Some txn -> txn.tx_redo <- op :: txn.tx_redo
  | None -> (
    match t.wal with Some w -> ignore (Wal.append_ops w [ op ] : int) | None -> ())

(* Record a statistics delta. Inside a transaction it is buffered and
   applied only after the commit's WAL append succeeds — rollback (or
   a crash mid-commit) discards it; outside, it applies immediately. *)
let stat_event t ev =
  match t.active with
  | Some txn -> txn.tx_stats <- ev :: txn.tx_stats
  | None -> Catalog.apply t.catalog ev

(* Mutators are exception-atomic. Their record rewrites touch
   buffer-pool memory — the disk I/O that can transiently fail happens
   at commit (WAL append) and flush time — so transient injection is
   paused across the physical-mutation region: a transient fault
   either rejects the operation before it mutates anything (reads and
   validation stay outside) or the operation completes together with
   its undo registration. The crash point stays armed throughout;
   recovery never trusts partial state. *)
let atomic t f = Sim_disk.with_transients_suspended t.disk f

(* ---------------- existence checks ---------------- *)

(* Raw = in-place store state, newest write wins regardless of
   transaction status. Mutators work against raw state (their undo
   closures must restore physical bytes); public reads resolve
   through the version chains. *)

let raw_node_exists t id =
  id >= 0
  && id < Record_store.count t.nodes
  && Record_store.get t.nodes ~id ~field:n_in_use = 1

let raw_edge_exists t id =
  id >= 0
  && id < Record_store.count t.rels
  && Record_store.get t.rels ~id ~field:r_in_use = 1

let existence = function B_absent -> false | B_present -> true | B_value _ -> false

(* With no version chains live, reads need no visibility resolution —
   the hot paths skip the version-key and resolver-closure allocations
   entirely. *)
let node_exists t id =
  if versioned t then resolve t (K_node id) ~base:(fun () -> raw_node_exists t id) ~before:existence
  else raw_node_exists t id

let edge_exists t id =
  if versioned t then resolve t (K_edge id) ~base:(fun () -> raw_edge_exists t id) ~before:existence
  else raw_edge_exists t id

let check_node t id = if not (node_exists t id) then raise (Node_not_found id)
let check_edge t id = if not (edge_exists t id) then raise (Edge_not_found id)

(* ---------------- property chains ---------------- *)

let encode_value t v =
  match v with
  | Value.Null -> invalid_arg "Db: cannot store Null property"
  | Value.Bool b -> (tag_bool, if b then 1 else 0)
  | Value.Int i -> (tag_int, i)
  | Value.Float f -> (tag_float, Blob_store.append t.strings (Printf.sprintf "%h" f))
  | Value.Str s -> (tag_string, Blob_store.append t.strings s)

let decode_value t ~tag ~payload =
  if tag = tag_bool then Value.Bool (payload = 1)
  else if tag = tag_int then Value.Int payload
  else if tag = tag_float then Value.Float (float_of_string (Blob_store.read t.strings payload))
  else if tag = tag_string then Value.Str (Blob_store.read t.strings payload)
  else failwith (Printf.sprintf "Db: corrupt property tag %d" tag)

(* Find the property record for [key_id] in the chain starting at
   [head]; None when absent. One packed read (one db hit) per chain
   record. *)
let rec find_prop t head key_id =
  if head = nil then None
  else
    let key, tag, payload, next =
      Record_store.read4 t.props ~id:head ~f0:p_key ~f1:p_tag ~f2:p_payload ~f3:p_next
    in
    if key = key_id then Some (head, tag, payload, next) else find_prop t next key_id

let read_prop_chain t head =
  let rec collect acc head =
    if head = nil then acc
    else begin
      let key_id, tag, payload, next =
        Record_store.read4 t.props ~id:head ~f0:p_key ~f1:p_tag ~f2:p_payload ~f3:p_next
      in
      let key = Dict.name t.key_dict key_id in
      let value = decode_value t ~tag ~payload in
      collect ((key, value) :: acc) next
    end
  in
  Property.of_list (collect [] head)

(* Same walk keeping key ids and values — the snapshot writer's
   view. *)
let raw_prop_pairs t head =
  let rec collect acc head =
    if head = nil then List.rev acc
    else begin
      let key_id, tag, payload, next =
        Record_store.read4 t.props ~id:head ~f0:p_key ~f1:p_tag ~f2:p_payload ~f3:p_next
      in
      collect ((key_id, decode_value t ~tag ~payload) :: acc) next
    end
  in
  collect [] head

(* Write [key -> value] into the chain whose head field lives at
   (store, owner, head_field). Returns an undo closure. *)
let write_prop t ~store ~owner ~head_field key value =
  let key_id = Dict.intern t.key_dict key in
  let head = Record_store.get store ~id:owner ~field:head_field in
  match (find_prop t head key_id, value) with
  | None, Value.Null -> fun () -> ()
  | None, v ->
    let tag, payload = encode_value t v in
    let prop = Record_store.allocate t.props in
    Record_store.set_record t.props ~id:prop [| key_id; tag; payload; head |];
    Record_store.set store ~id:owner ~field:head_field prop;
    fun () -> Record_store.set store ~id:owner ~field:head_field head
  | Some (prop, _, _, next), Value.Null ->
    (* Unlink the record from the chain. *)
    if head = prop then Record_store.set store ~id:owner ~field:head_field next
    else begin
      let rec relink cursor =
        let cursor_next = Record_store.get t.props ~id:cursor ~field:p_next in
        if cursor_next = prop then Record_store.set t.props ~id:cursor ~field:p_next next
        else relink cursor_next
      in
      relink head
    end;
    fun () ->
      (* Re-insert at the head; chain order is not semantic. *)
      let current_head = Record_store.get store ~id:owner ~field:head_field in
      Record_store.set t.props ~id:prop ~field:p_next current_head;
      Record_store.set store ~id:owner ~field:head_field prop
  | Some (prop, old_tag, old_payload, _), v ->
    let tag, payload = encode_value t v in
    Record_store.set t.props ~id:prop ~field:p_tag tag;
    Record_store.set t.props ~id:prop ~field:p_payload payload;
    fun () ->
      Record_store.set t.props ~id:prop ~field:p_tag old_tag;
      Record_store.set t.props ~id:prop ~field:p_payload old_payload

(* ---------------- indexes ---------------- *)

let index_for t key = Hashtbl.find_opt t.indexes key

let index_insert index value_hash node =
  match Hashtbl.find_opt index value_hash with
  | Some bucket -> bucket := node :: !bucket
  | None -> Hashtbl.replace index value_hash (ref [ node ])

let index_remove index value_hash node =
  match Hashtbl.find_opt index value_hash with
  | None -> ()
  | Some bucket -> bucket := List.filter (fun n -> n <> node) !bucket

(* Keep indexes in sync when node [id] of label [label_id] changes
   property [key_id] from [old_v] to [new_v]. Returns undo. *)
let index_maintain t ~label_id ~key_id ~node ~old_v ~new_v =
  match index_for t { ilabel = label_id; ikey = key_id } with
  | None -> fun () -> ()
  | Some index ->
    let remove_old () =
      if old_v <> Value.Null then index_remove index (Value.hash_fold old_v) node
    in
    let insert_new () =
      if new_v <> Value.Null then index_insert index (Value.hash_fold new_v) node
    in
    remove_old ();
    insert_new ();
    fun () ->
      if new_v <> Value.Null then index_remove index (Value.hash_fold new_v) node;
      if old_v <> Value.Null then index_insert index (Value.hash_fold old_v) node

(* ---------------- reads ---------------- *)

let node_label t id =
  check_node t id;
  Dict.name t.label_dict (Record_store.get t.nodes ~id ~field:n_label)

(* Scratch-array chain walk for the packed read path: no option, no
   tuples, no closure (module-level recursion) — the only allocation
   on a property hit is the returned [Value.t] itself. *)
let rec prop_walk t key_id head =
  if head = nil then Value.Null
  else begin
    let s = t.scratch in
    Record_store.read_into t.props ~id:head s;
    if Array.unsafe_get s p_key = key_id then
      decode_value t ~tag:(Array.unsafe_get s p_tag) ~payload:(Array.unsafe_get s p_payload)
    else prop_walk t key_id (Array.unsafe_get s p_next)
  end

(* In-place (newest) value of one property slot. *)
let raw_prop t ~store ~owner ~head_field key_id =
  prop_walk t key_id (Record_store.get store ~id:owner ~field:head_field)

let prop_before = function B_value v -> v | B_absent | B_present -> Value.Null

let node_property t id key =
  check_node t id;
  match Dict.find t.key_dict key with
  | None -> Value.Null
  | Some key_id ->
    if versioned t then
      resolve t (K_nprop (id, key_id))
        ~base:(fun () -> raw_prop t ~store:t.nodes ~owner:id ~head_field:n_first_prop key_id)
        ~before:prop_before
    else raw_prop t ~store:t.nodes ~owner:id ~head_field:n_first_prop key_id

(* A full property map resolves each versioned slot individually on
   top of the in-place chain. *)
let node_properties t id =
  check_node t id;
  let props = read_prop_chain t (Record_store.get t.nodes ~id ~field:n_first_prop) in
  if not (versioned t) then props
  else
    Hashtbl.fold
      (fun k _ props ->
        match k with
        | K_nprop (n, key_id) when n = id ->
          let v =
            resolve t k
              ~base:(fun () -> raw_prop t ~store:t.nodes ~owner:id ~head_field:n_first_prop key_id)
              ~before:prop_before
          in
          Property.set props (Dict.name t.key_dict key_id) v
        | _ -> props)
      t.versions props

let edge t id =
  check_edge t id;
  let record = Record_store.get_record t.rels ~id in
  {
    id;
    etype = Dict.name t.type_dict record.(r_type);
    src = record.(r_src);
    dst = record.(r_dst);
  }

let edge_property t id key =
  check_edge t id;
  match Dict.find t.key_dict key with
  | None -> Value.Null
  | Some key_id ->
    if versioned t then
      resolve t (K_eprop (id, key_id))
        ~base:(fun () -> raw_prop t ~store:t.rels ~owner:id ~head_field:r_first_prop key_id)
        ~before:prop_before
    else raw_prop t ~store:t.rels ~owner:id ~head_field:r_first_prop key_id

let raw_out_degree t id = Record_store.get t.nodes ~id ~field:n_out_degree
let raw_in_degree t id = Record_store.get t.nodes ~id ~field:n_in_degree

(* Walk one relationship chain lazily. [next_field] selects the
   out-chain or in-chain linkage. Type, endpoints and link come in one
   packed read: one db hit per record, no record array. *)
let rec chain_seq t rel_id next_field () =
  if rel_id = nil then Seq.Nil
  else begin
    let type_id, src, dst, next =
      Record_store.read4 t.rels ~id:rel_id ~f0:r_type ~f1:r_src ~f2:r_dst ~f3:next_field
    in
    let e = { id = rel_id; etype = Dict.name t.type_dict type_id; src; dst } in
    Seq.Cons (e, chain_seq t next next_field)
  end

(* Endpoint-only walk of one chain, for [neighbors]: the same one db
   hit per record as [chain_seq], decoded into the shared scratch, and
   it yields the other endpoint's id — no [edge], no type-name lookup.
   [tid] filters when >= 0; [skip_self] drops the in-chain copy of a
   self-loop. *)
let endpoint_seq t node ~tid ~out ~skip_self head =
  let next_field = if out then r_next_out else r_next_in in
  let other_field = if out then r_dst else r_src in
  let rec step rel_id () =
    if rel_id = nil then Seq.Nil
    else begin
      let s = t.scratch in
      Record_store.read_into t.rels ~id:rel_id s;
      let other = Array.unsafe_get s other_field and next = Array.unsafe_get s next_field in
      if (tid < 0 || Array.unsafe_get s r_type = tid) && not (skip_self && other = node) then
        Seq.Cons (other, step next)
      else step next ()
    end
  in
  step head

(* ---------------- dense nodes (relationship groups) ---------------- *)

let is_dense t node = Record_store.get t.nodes ~id:node ~field:n_dense = 1

(* Find the group record carrying [type_id]'s chains on a dense node. *)
let group_of t node type_id =
  let rec walk group_id =
    if group_id = nil then None
    else if Record_store.get t.groups ~id:group_id ~field:g_type = type_id then Some group_id
    else walk (Record_store.get t.groups ~id:group_id ~field:g_next)
  in
  walk (Record_store.get t.nodes ~id:node ~field:n_first_out)

let ensure_group t node type_id =
  match group_of t node type_id with
  | Some g -> g
  | None ->
    let g = Record_store.allocate t.groups in
    let head = Record_store.get t.nodes ~id:node ~field:n_first_out in
    Record_store.set_record t.groups ~id:g [| 1; type_id; head; nil; nil; 0; 0 |];
    Record_store.set t.nodes ~id:node ~field:n_first_out g;
    g

(* Where a chain's head pointer lives: directly in the node record
   (sparse) or in a per-type relationship group record (dense). *)
type head_loc = Node_head of int * int | Group_head of int * int

let read_head t = function
  | Node_head (node, field) -> Record_store.get t.nodes ~id:node ~field
  | Group_head (group, field) -> Record_store.get t.groups ~id:group ~field

let write_head t loc value =
  match loc with
  | Node_head (node, field) -> Record_store.set t.nodes ~id:node ~field value
  | Group_head (group, field) -> Record_store.set t.groups ~id:group ~field value

let head_loc t node type_id ~out =
  if is_dense t node then begin
    let g = ensure_group t node type_id in
    Group_head (g, if out then g_first_out else g_first_in)
  end
  else Node_head (node, if out then n_first_out else n_first_in)

(* Link / unlink one side of an edge into its node's chain, whichever
   representation the node currently uses. *)
let bump_group_count t loc ~out delta =
  match loc with
  | Node_head _ -> ()
  | Group_head (g, _) ->
    let field = if out then g_out_count else g_in_count in
    Record_store.set t.groups ~id:g ~field (Record_store.get t.groups ~id:g ~field + delta)

let insert_side t id ~node ~type_id ~out =
  let loc = head_loc t node type_id ~out in
  let next_field = if out then r_next_out else r_next_in in
  Record_store.set t.rels ~id ~field:next_field (read_head t loc);
  write_head t loc id;
  bump_group_count t loc ~out 1

let unlink_side t id ~node ~type_id ~out =
  let loc = head_loc t node type_id ~out in
  let next_field = if out then r_next_out else r_next_in in
  let next = Record_store.get t.rels ~id ~field:next_field in
  if read_head t loc = id then write_head t loc next
  else begin
    let rec walk cursor =
      let cursor_next = Record_store.get t.rels ~id:cursor ~field:next_field in
      if cursor_next = id then Record_store.set t.rels ~id:cursor ~field:next_field next
      else walk cursor_next
    in
    walk (read_head t loc)
  end;
  bump_group_count t loc ~out (-1)

(* Convert a node to the dense representation: pull its two mixed
   chains apart into per-type group chains. This is the work the
   import tool's "computing the dense nodes" step performs up front. *)
let densify t node =
  let collect head next_field =
    let rec walk acc rel_id =
      if rel_id = nil then List.rev acc
      else begin
        let record = Record_store.get_record t.rels ~id:rel_id in
        walk ((rel_id, record.(r_type)) :: acc) record.(next_field)
      end
    in
    walk [] head
  in
  let out_edges = collect (Record_store.get t.nodes ~id:node ~field:n_first_out) r_next_out in
  let in_edges = collect (Record_store.get t.nodes ~id:node ~field:n_first_in) r_next_in in
  Record_store.set t.nodes ~id:node ~field:n_first_out nil;
  Record_store.set t.nodes ~id:node ~field:n_first_in nil;
  Record_store.set t.nodes ~id:node ~field:n_dense 1;
  List.iter
    (fun (id, type_id) -> insert_side t id ~node ~type_id ~out:true)
    (List.rev out_edges);
  List.iter
    (fun (id, type_id) -> insert_side t id ~node ~type_id ~out:false)
    (List.rev in_edges)

let maybe_densify t node =
  if not (is_dense t node) then begin
    let total =
      Record_store.get t.nodes ~id:node ~field:n_out_degree
      + Record_store.get t.nodes ~id:node ~field:n_in_degree
    in
    if total >= t.dense_node_threshold then densify t node
  end

(* All chain heads to walk for [node] in one direction, optionally
   narrowed to one relationship type. On a dense node a typed
   expansion touches only that type's group chain. *)
let chain_heads t node ?type_id ~out () =
  if is_dense t node then begin
    match type_id with
    | Some tid -> (
      match group_of t node tid with
      | Some g -> [ Record_store.get t.groups ~id:g ~field:(if out then g_first_out else g_first_in) ]
      | None -> [])
    | None ->
      let rec walk acc group_id =
        if group_id = nil then List.rev acc
        else begin
          let head =
            Record_store.get t.groups ~id:group_id
              ~field:(if out then g_first_out else g_first_in)
          in
          walk (head :: acc) (Record_store.get t.groups ~id:group_id ~field:g_next)
        end
      in
      walk [] (Record_store.get t.nodes ~id:node ~field:n_first_out)
  end
  else [ Record_store.get t.nodes ~id:node ~field:(if out then n_first_out else n_first_in) ]

(* One direction's chains, concatenated in group order; the heads
   are read now, the records as the sequence is forced. *)
let side_seq t id ?type_id ~out walk =
  List.fold_left
    (fun acc head -> Seq.append acc (walk head))
    Seq.empty
    (chain_heads t id ?type_id ~out ())

let edges_of t id ?etype dir =
  check_node t id;
  let type_id = Option.bind etype (Dict.find t.type_dict) in
  match (etype, type_id) with
  | Some _, None -> Seq.empty (* unknown type name *)
  | _ ->
    let type_ok =
      match etype with
      | None -> fun _ -> true
      | Some name -> fun (e : edge) -> String.equal e.etype name
    in
    let side ~out next_field =
      side_seq t id ?type_id ~out (fun head -> chain_seq t head next_field)
    in
    let seq =
      match dir with
      | Out -> side ~out:true r_next_out
      | In -> side ~out:false r_next_in
      | Both ->
        (* Self-loops live in both chains; report them once, from the
           out side. *)
        Seq.append (side ~out:true r_next_out)
          (Seq.filter (fun e -> e.src <> e.dst) (side ~out:false r_next_in))
    in
    let seq = Seq.filter type_ok seq in
    (* Chains are physical: edges inserted by concurrent uncommitted
       transactions are linked in already, so snapshot expansion
       filters them out by visibility. *)
    if versioned t then Seq.filter (fun (e : edge) -> edge_exists t e.id) seq else seq

(* Same walk, same hits and page accesses in the same order as
   [edges_of], projected to the other endpoint. Visibility filtering
   needs edge ids, so while version entries exist it goes through
   [edges_of]. *)
let neighbors t id ?etype dir =
  if versioned t then Seq.map (fun e -> other_end e id) (edges_of t id ?etype dir)
  else begin
    check_node t id;
    let type_id = Option.bind etype (Dict.find t.type_dict) in
    match (etype, type_id) with
    | Some _, None -> Seq.empty (* unknown type name *)
    | _ -> (
      let tid = Option.value type_id ~default:(-1) in
      let side ~out ~skip_self =
        side_seq t id ?type_id ~out (endpoint_seq t id ~tid ~out ~skip_self)
      in
      match dir with
      | Out -> side ~out:true ~skip_self:false
      | In -> side ~out:false ~skip_self:false
      | Both -> Seq.append (side ~out:true ~skip_self:false) (side ~out:false ~skip_self:true))
  end

(* Cached degree fields count in-place chain membership, which under
   open concurrent transactions includes uncommitted insertions — so
   while version entries exist, degrees fall back to counting the
   visibility-filtered expansion. *)
let out_degree t id =
  check_node t id;
  if versioned t then Seq.length (edges_of t id Out) else raw_out_degree t id

let in_degree t id =
  check_node t id;
  if versioned t then Seq.length (edges_of t id In) else raw_in_degree t id

let degree t id ?etype dir =
  match (etype, dir) with
  | None, Out -> out_degree t id
  | None, In -> in_degree t id
  | None, Both ->
    let loops = Seq.length (Seq.filter (fun e -> e.src = e.dst) (edges_of t id Out)) in
    out_degree t id + in_degree t id - loops
  | Some name, _ -> (
    check_node t id;
    match Dict.find t.type_dict name with
    | None -> 0
    | Some type_id when is_dense t id && not (versioned t) -> (
      (* Group records cache their chain lengths: a typed degree on a
         dense node costs the group-chain walk, not the edge chain. *)
      let count field =
        match group_of t id type_id with
        | Some g -> Record_store.get t.groups ~id:g ~field
        | None -> 0
      in
      match dir with
      | Out -> count g_out_count
      | In -> count g_in_count
      | Both ->
        let loops =
          Seq.length (Seq.filter (fun e -> e.src = e.dst) (edges_of t id ~etype:name Out))
        in
        count g_out_count + count g_in_count - loops)
    | Some _ -> Seq.length (edges_of t id ?etype dir))

let all_nodes t =
  let total = Record_store.count t.nodes in
  if versioned t then begin
    (* Visibility-resolved: covers both uncommitted creations (in use
       but invisible) and uncommitted deletions (tombstoned but still
       visible to older snapshots). *)
    let rec from id () =
      if id >= total then Seq.Nil
      else if node_exists t id then Seq.Cons (id, from (id + 1))
      else from (id + 1) ()
    in
    from 0
  end
  else begin
    let rec from id () =
      if id >= total then Seq.Nil
      else if Record_store.get t.nodes ~id ~field:n_in_use = 1 then Seq.Cons (id, from (id + 1))
      else from (id + 1) ()
    in
    from 0
  end

let nodes_with_label t label =
  match Dict.find t.label_dict label with
  | None -> Seq.empty
  | Some label_id ->
    let scan = scan_for t label_id in
    let rec from i () =
      if i >= scan.len then Seq.Nil
      else begin
        (* Reading a scan-store entry is one db hit. *)
        Cost_model.record_db_hit (cost t);
        Seq.Cons (scan.ids.(i), from (i + 1))
      end
    in
    let seq = from 0 in
    if versioned t then Seq.filter (node_exists t) seq
    else if Hashtbl.length t.scan_dead > 0 then
      Seq.filter (fun node -> not (Hashtbl.mem t.scan_dead node)) seq
    else seq

let is_dense_node t id =
  check_node t id;
  is_dense t id

let dense_node_threshold t = t.dense_node_threshold

let densify_node t id =
  check_node t id;
  if not (is_dense t id) then
    atomic t (fun () ->
        densify t id;
        (* Only explicit conversions are logged; threshold-triggered
           ones re-fire deterministically during replay. *)
        log_redo t (Wal.Densify id))

let node_count t = t.node_count
let edge_count t = t.edge_count

let label_count t label =
  match Dict.find t.label_dict label with
  | None -> 0
  | Some label_id ->
    Hashtbl.fold
      (fun _ l n -> if l = label_id then n - 1 else n)
      t.scan_dead (scan_for t label_id).len

let edge_type_count t etype =
  match Dict.find t.type_dict etype with
  | None -> 0
  | Some type_id -> (
    match Hashtbl.find_opt t.type_counts type_id with Some r -> !r | None -> 0)

(* ---------------- writes ---------------- *)

let create_node t ~label properties =
  atomic t @@ fun () ->
  let label_id = Dict.intern t.label_dict label in
  let id = Record_store.allocate t.nodes in
  Record_store.set_record t.nodes ~id [| 1; label_id; nil; nil; nil; 0; 0; 0 |];
  scan_add t label_id id;
  t.node_count <- t.node_count + 1;
  let prop_undos =
    List.map
      (fun (key, value) ->
        let undo_write =
          write_prop t ~store:t.nodes ~owner:id ~head_field:n_first_prop key value
        in
        let key_id = Dict.intern t.key_dict key in
        let undo_index =
          index_maintain t ~label_id ~key_id ~node:id ~old_v:Value.Null ~new_v:value
        in
        fun () ->
          undo_index ();
          undo_write ())
      (Property.to_list properties)
  in
  (* A fresh id cannot conflict; the entry hides the node (and its
     initial properties, reachable only through it) from other
     snapshots until commit. *)
  push_entry t (K_node id) ~before_img:B_absent ~undo:(fun () ->
      List.iter (fun u -> u ()) (List.rev prop_undos);
      Record_store.set t.nodes ~id ~field:n_in_use 0;
      scan_remove t label_id id;
      t.node_count <- t.node_count - 1);
  log_redo t (Wal.Create_node { id; label; props = Property.to_list properties });
  stat_event t (Catalog.Node_added { node = id; label; props = Property.to_list properties });
  id

let bump_type_count t type_id delta =
  match Hashtbl.find_opt t.type_counts type_id with
  | Some r -> r := !r + delta
  | None -> Hashtbl.replace t.type_counts type_id (ref delta)

(* Adjust cached degree fields by [delta] for the edge's endpoints. *)
let bump_degrees t ~src ~dst delta =
  Record_store.set t.nodes ~id:src ~field:n_out_degree
    (Record_store.get t.nodes ~id:src ~field:n_out_degree + delta);
  Record_store.set t.nodes ~id:dst ~field:n_in_degree
    (Record_store.get t.nodes ~id:dst ~field:n_in_degree + delta)

(* Logical removal of a live edge from both of its chains. Undo-safe
   under densification: it locates heads through the node's current
   representation. *)
let remove_edge_physically t id =
  let record = Record_store.get_record t.rels ~id in
  let type_id = record.(r_type) and src = record.(r_src) and dst = record.(r_dst) in
  unlink_side t id ~node:src ~type_id ~out:true;
  unlink_side t id ~node:dst ~type_id ~out:false;
  Record_store.set t.rels ~id ~field:r_in_use 0;
  bump_degrees t ~src ~dst (-1);
  t.edge_count <- t.edge_count - 1;
  bump_type_count t type_id (-1)

(* Logical (re-)insertion of an existing edge record into the current
   chains of its endpoints. *)
let insert_edge_physically t id =
  let record = Record_store.get_record t.rels ~id in
  let type_id = record.(r_type) and src = record.(r_src) and dst = record.(r_dst) in
  insert_side t id ~node:src ~type_id ~out:true;
  insert_side t id ~node:dst ~type_id ~out:false;
  Record_store.set t.rels ~id ~field:r_in_use 1;
  bump_degrees t ~src ~dst 1;
  t.edge_count <- t.edge_count + 1;
  bump_type_count t type_id 1

let create_edge t ~etype ~src ~dst properties =
  check_node t src;
  check_node t dst;
  atomic t @@ fun () ->
  let type_id = Dict.intern t.type_dict etype in
  let id = Record_store.allocate t.rels in
  Record_store.set_record t.rels ~id [| 0; type_id; src; dst; nil; nil; nil |];
  insert_edge_physically t id;
  List.iter
    (fun (key, value) ->
      let (_ : unit -> unit) =
        write_prop t ~store:t.rels ~owner:id ~head_field:r_first_prop key value
      in
      ())
    (Property.to_list properties);
  (* High-degree endpoints convert to relationship groups. The
     conversion itself is a semantically neutral reorganisation and is
     not undone on rollback. *)
  maybe_densify t src;
  maybe_densify t dst;
  push_entry t (K_edge id) ~before_img:B_absent ~undo:(fun () -> remove_edge_physically t id);
  log_redo t (Wal.Create_edge { id; etype; src; dst; props = Property.to_list properties });
  stat_event t (Catalog.Edge_added { etype; src; dst });
  id

let set_node_property t id key value =
  check_node t id;
  let key_id = Dict.intern t.key_dict key in
  claim_write t (K_nprop (id, key_id));
  (* Before-images are the in-place (raw) values: they are what undo
     and concurrent snapshots must restore/see, even when this
     writer's own snapshot is older. *)
  let old_v = raw_prop t ~store:t.nodes ~owner:id ~head_field:n_first_prop key_id in
  atomic t @@ fun () ->
  let undo_write = write_prop t ~store:t.nodes ~owner:id ~head_field:n_first_prop key value in
  let label_id = Record_store.get t.nodes ~id ~field:n_label in
  let undo_index = index_maintain t ~label_id ~key_id ~node:id ~old_v ~new_v:value in
  push_entry t (K_nprop (id, key_id)) ~before_img:(B_value old_v) ~undo:(fun () ->
      undo_index ();
      undo_write ());
  log_redo t (Wal.Set_node_prop { node = id; key; value });
  stat_event t (Catalog.Prop_set { node = id; key; old_v; new_v = value })

let set_edge_property t id key value =
  check_edge t id;
  let key_id = Dict.intern t.key_dict key in
  claim_write t (K_eprop (id, key_id));
  let old_v = raw_prop t ~store:t.rels ~owner:id ~head_field:r_first_prop key_id in
  atomic t @@ fun () ->
  let undo_write = write_prop t ~store:t.rels ~owner:id ~head_field:r_first_prop key value in
  push_entry t (K_eprop (id, key_id)) ~before_img:(B_value old_v) ~undo:undo_write;
  log_redo t (Wal.Set_edge_prop { edge = id; key; value })

let delete_edge t id =
  check_edge t id;
  claim_write t (K_edge id);
  let e = edge t id in
  atomic t @@ fun () ->
  remove_edge_physically t id;
  (* Undo re-inserts at the then-current chain heads; order within a
     chain is not semantic. *)
  push_entry t (K_edge id) ~before_img:B_present ~undo:(fun () -> insert_edge_physically t id);
  log_redo t (Wal.Delete_edge id);
  stat_event t (Catalog.Edge_removed { etype = e.etype; src = e.src; dst = e.dst })

let delete_node t id =
  check_node t id;
  if out_degree t id > 0 || in_degree t id > 0 then
    failwith "Db.delete_node: node still has relationships";
  claim_write t (K_node id);
  let label_id = Record_store.get t.nodes ~id ~field:n_label in
  (* Drop indexed entries for this node (raw map: what the index
     physically holds). *)
  let props = read_prop_chain t (Record_store.get t.nodes ~id ~field:n_first_prop) in
  atomic t @@ fun () ->
  let index_undos =
    List.map
      (fun (key, value) ->
        let key_id = Dict.intern t.key_dict key in
        index_maintain t ~label_id ~key_id ~node:id ~old_v:value ~new_v:Value.Null)
      (Property.to_list props)
  in
  Record_store.set t.nodes ~id ~field:n_in_use 0;
  (* While a transaction is open some snapshot may predate this
     delete: the scan entry stays, hidden from later views, until the
     last transaction closes. *)
  let deferred = t.open_txns <> [] in
  if deferred then Hashtbl.replace t.scan_dead id label_id else scan_remove t label_id id;
  t.node_count <- t.node_count - 1;
  push_entry t (K_node id) ~before_img:B_present ~undo:(fun () ->
      Record_store.set t.nodes ~id ~field:n_in_use 1;
      if deferred then Hashtbl.remove t.scan_dead id else scan_add t label_id id;
      t.node_count <- t.node_count + 1;
      List.iter (fun u -> u ()) index_undos);
  log_redo t (Wal.Delete_node id);
  stat_event t (Catalog.Node_removed { node = id; props = Property.to_list props })

(* ---------------- schema indexes ---------------- *)

let has_index t ~label ~property =
  match (Dict.find t.label_dict label, Dict.find t.key_dict property) with
  | Some ilabel, Some ikey -> Hashtbl.mem t.indexes { ilabel; ikey }
  | _ -> false

let create_index t ~label ~property =
  let ilabel = Dict.intern t.label_dict label in
  let ikey = Dict.intern t.key_dict property in
  let key = { ilabel; ikey } in
  if not (Hashtbl.mem t.indexes key) then
    atomic t (fun () ->
        let index = Hashtbl.create 1024 in
        Hashtbl.replace t.indexes key index;
        Seq.iter
          (fun node ->
            let v = node_property t node property in
            if v <> Value.Null then index_insert index (Value.hash_fold v) node)
          (nodes_with_label t label);
        log_redo t (Wal.Create_index { label; property });
        (* A new access path invalidates cached plans. *)
        Catalog.bump_epoch t.catalog)

let drop_index t ~label ~property =
  match (Dict.find t.label_dict label, Dict.find t.key_dict property) with
  | Some ilabel, Some ikey when Hashtbl.mem t.indexes { ilabel; ikey } ->
    atomic t (fun () ->
        Hashtbl.remove t.indexes { ilabel; ikey };
        log_redo t (Wal.Drop_index { label; property });
        Catalog.bump_epoch t.catalog)
  | _ -> ()

let index_lookup t ~label ~property value =
  match (Dict.find t.label_dict label, Dict.find t.key_dict property) with
  | Some ilabel, Some ikey -> (
    match Hashtbl.find_opt t.indexes { ilabel; ikey } with
    | None ->
      raise (Schema_error (Printf.sprintf "no index on :%s(%s)" label property))
    | Some index -> (
      (* Probing the index is one db hit; candidates are verified
         against the property store to discard hash collisions. *)
      Cost_model.record_db_hit (cost t);
      match Hashtbl.find_opt index (Value.hash_fold value) with
      | None -> []
      | Some bucket ->
        (* Index buckets track raw state, so candidates from invisible
           transactions are screened out along with hash collisions. *)
        List.filter
          (fun node -> node_exists t node && Value.equal (node_property t node property) value)
          !bucket))
  | _ -> raise (Schema_error (Printf.sprintf "no index on :%s(%s)" label property))

(* ---------------- statistics catalog ---------------- *)

let stats t = t.catalog
let stats_epoch t = Catalog.epoch t.catalog

(* ANALYZE: rebuild the statistics from a full scan. Charges real
   store reads (labels, property chains, out-chains), like the scans
   it is made of. *)
let analyze t =
  if t.open_txns <> [] then raise (Tx_error "Db.analyze: transactions open");
  let nodes =
    Seq.map
      (fun id -> (id, node_label t id, Property.to_list (node_properties t id)))
      (all_nodes t)
  in
  let edges =
    Seq.concat_map
      (fun id -> Seq.map (fun e -> (e.etype, e.src, e.dst)) (edges_of t id Out))
      (all_nodes t)
  in
  Catalog.rebuild t.catalog ~nodes ~edges

(* ---------------- snapshots (v6 codec image) ---------------- *)

(* A snapshot is a logical image: dictionaries, then per-id node and
   edge rows (tombstones included, so allocation order — and with it
   every chain-layout decision — replays identically), then the index
   schema. Loading replays the rows through the ordinary mutators
   against a fresh disk, rebuilding chains, label scans, relationship
   groups, indexes and the statistics catalog from first principles.
   The container carries the same length + CRC-32 discipline as a WAL
   frame; the payload is pure codec bytes, stable across compiler
   versions (v5 and below marshalled the live heap structure). *)

let encode_image t =
  let e = Codec.Enc.create ~size:(64 * 1024) () in
  let { Cost_model.record_access_ns; page_hit_ns; page_fault_ns; page_flush_ns; seek_penalty_ns }
      =
    t.settings.s_config
  in
  Codec.Enc.varint e record_access_ns;
  Codec.Enc.varint e page_hit_ns;
  Codec.Enc.varint e page_fault_ns;
  Codec.Enc.varint e page_flush_ns;
  Codec.Enc.varint e seek_penalty_ns;
  Codec.Enc.option e Codec.Enc.varint t.settings.s_pool_pages;
  Codec.Enc.option e Codec.Enc.varint t.settings.s_checkpoint_dirty_pages;
  Codec.Enc.varint e t.settings.s_dense_node_threshold;
  Codec.Enc.bool e t.settings.s_wal;
  Codec.Enc.list e Codec.Enc.string (Dict.names t.label_dict);
  Codec.Enc.list e Codec.Enc.string (Dict.names t.type_dict);
  Codec.Enc.list e Codec.Enc.string (Dict.names t.key_dict);
  Codec.Enc.varint e (last_lsn t);
  let props head =
    Codec.Enc.list e
      (fun e (key_id, v) ->
        Codec.Enc.varint e key_id;
        Codec.Enc.value e v)
      (raw_prop_pairs t head)
  in
  let n_nodes = Record_store.count t.nodes in
  Codec.Enc.varint e n_nodes;
  for id = 0 to n_nodes - 1 do
    if Record_store.get t.nodes ~id ~field:n_in_use = 1 then begin
      Codec.Enc.bool e true;
      Codec.Enc.varint e (Record_store.get t.nodes ~id ~field:n_label);
      Codec.Enc.bool e (Record_store.get t.nodes ~id ~field:n_dense = 1);
      props (Record_store.get t.nodes ~id ~field:n_first_prop)
    end
    else Codec.Enc.bool e false
  done;
  let n_edges = Record_store.count t.rels in
  Codec.Enc.varint e n_edges;
  for id = 0 to n_edges - 1 do
    if Record_store.get t.rels ~id ~field:r_in_use = 1 then begin
      Codec.Enc.bool e true;
      Codec.Enc.varint e (Record_store.get t.rels ~id ~field:r_type);
      Codec.Enc.varint e (Record_store.get t.rels ~id ~field:r_src);
      Codec.Enc.varint e (Record_store.get t.rels ~id ~field:r_dst);
      props (Record_store.get t.rels ~id ~field:r_first_prop)
    end
    else Codec.Enc.bool e false
  done;
  let index_keys =
    List.sort compare (Hashtbl.fold (fun k _ acc -> (k.ilabel, k.ikey) :: acc) t.indexes [])
  in
  Codec.Enc.list e
    (fun e (ilabel, ikey) ->
      Codec.Enc.varint e ilabel;
      Codec.Enc.varint e ikey)
    index_keys;
  Codec.Enc.contents e

let save t path =
  if t.open_txns <> [] then raise (Tx_error "Db.save: transaction open");
  (* The snapshot file lives on the host, outside the simulated disk;
     writing it is an out-of-band maintenance path, so the image reads
     run with fault injection suspended — the marshalled form never
     touched the disk at all. *)
  let payload = Sim_disk.with_faults_suspended t.disk (fun () -> encode_image t) in
  let meta = Bytes.create 12 in
  Bytes.set_int64_le meta 0 (Int64.of_int (String.length payload));
  Bytes.set_int32_le meta 8 (Mgq_util.Crc32.digest payload);
  (* Write beside the target and rename over it: [open_out_bin path]
     would truncate the only snapshot before the new one is complete. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc save_magic;
      output_byte oc save_version;
      output_bytes oc meta;
      output_string oc payload);
  Sys.rename tmp path

let decode_image payload =
  let d = Codec.Dec.of_string payload in
  let record_access_ns = Codec.Dec.varint d in
  let page_hit_ns = Codec.Dec.varint d in
  let page_fault_ns = Codec.Dec.varint d in
  let page_flush_ns = Codec.Dec.varint d in
  let seek_penalty_ns = Codec.Dec.varint d in
  let config =
    { Cost_model.record_access_ns; page_hit_ns; page_fault_ns; page_flush_ns; seek_penalty_ns }
  in
  let pool_pages = Codec.Dec.option d Codec.Dec.varint in
  let checkpoint_dirty_pages = Codec.Dec.option d Codec.Dec.varint in
  let dense_node_threshold = Codec.Dec.varint d in
  let wal = Codec.Dec.bool d in
  let t = create ~config ?pool_pages ?checkpoint_dirty_pages ~dense_node_threshold ~wal () in
  (* The rows replayed below must not re-log: the snapshot already is
     the log's fold. The WAL comes back at the end, seeded with the
     saved high-water mark so post-load appends continue the original
     LSN sequence. *)
  t.wal <- None;
  let intern_all dict = List.iter (fun n -> ignore (Dict.intern dict n : int)) in
  intern_all t.label_dict (Codec.Dec.list d Codec.Dec.string);
  intern_all t.type_dict (Codec.Dec.list d Codec.Dec.string);
  intern_all t.key_dict (Codec.Dec.list d Codec.Dec.string);
  let saved_last_lsn = Codec.Dec.varint d in
  let props () =
    Property.of_list
      (Codec.Dec.list d (fun d ->
           let key = Dict.name t.key_dict (Codec.Dec.varint d) in
           (key, Codec.Dec.value d)))
  in
  let dense_nodes = ref [] in
  let n_nodes = Codec.Dec.varint d in
  for id = 0 to n_nodes - 1 do
    if Codec.Dec.bool d then begin
      let label = Dict.name t.label_dict (Codec.Dec.varint d) in
      if Codec.Dec.bool d then dense_nodes := id :: !dense_nodes;
      let got = create_node t ~label (props ()) in
      if got <> id then corrupt "node row %d allocated at %d" id got
    end
    else
      (* Tombstone: consume the id so later rows land where the image
         recorded them (and chain layouts replay byte-for-byte). *)
      ignore (Record_store.allocate t.nodes : int)
  done;
  let n_edges = Codec.Dec.varint d in
  for id = 0 to n_edges - 1 do
    if Codec.Dec.bool d then begin
      let etype = Dict.name t.type_dict (Codec.Dec.varint d) in
      let src = Codec.Dec.varint d in
      let dst = Codec.Dec.varint d in
      let got = create_edge t ~etype ~src ~dst (props ()) in
      if got <> id then corrupt "edge row %d allocated at %d" id got
    end
    else ignore (Record_store.allocate t.rels : int)
  done;
  (* Threshold densification re-fired during the replay above for most
     flagged nodes; the rest (explicitly converted below threshold, or
     thinned by deletions the image folded in) convert now. Replay can
     never densify a node the original had sparse: it only ever sees a
     subset of each node's historical degree. *)
  List.iter (fun id -> if not (is_dense t id) then densify_node t id) (List.rev !dense_nodes);
  List.iter
    (fun (ilabel, ikey) ->
      create_index t ~label:(Dict.name t.label_dict ilabel) ~property:(Dict.name t.key_dict ikey))
    (Codec.Dec.list d (fun d ->
         let ilabel = Codec.Dec.varint d in
         (ilabel, Codec.Dec.varint d)));
  Codec.Dec.expect_end d;
  if wal then t.wal <- Some (Wal.create ~base_lsn:saved_last_lsn t.disk);
  t

let load path =
  let ic = try open_in_bin path with Sys_error msg -> failwith ("Db.load: " ^ msg) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let read_exactly what n =
        try really_input_string ic n with End_of_file -> corrupt "truncated %s" what
      in
      let header = read_exactly "header" (String.length save_magic) in
      if header <> save_magic then corrupt "not a record-store database file";
      let version = try input_byte ic with End_of_file -> corrupt "truncated header" in
      if version <> save_version then corrupt "unsupported snapshot version %d" version;
      let meta = Bytes.of_string (read_exactly "header" 12) in
      let len = Int64.to_int (Bytes.get_int64_le meta 0) in
      if len < 0 || len > Sys.max_string_length then corrupt "implausible payload length";
      let crc = Bytes.get_int32_le meta 8 in
      let payload = read_exactly "payload" len in
      if Mgq_util.Crc32.digest payload <> crc then corrupt "checksum mismatch";
      try decode_image payload with
      | Codec.Error msg -> corrupt "snapshot payload: %s" msg
      | Schema_error msg -> corrupt "snapshot payload: %s" msg
      | Node_not_found id -> corrupt "snapshot edge references missing node %d" id)

(* ---------------- checkpoint & recovery ---------------- *)


let checkpoint t path =
  if t.open_txns <> [] then raise (Tx_error "Db.checkpoint: transaction open");
  (* Order matters: only once the snapshot is safely on disk may the
     log be truncated. A failure at any earlier step leaves the
     previous snapshot + full log intact. *)
  Sim_disk.flush_all t.disk;
  save t path;
  match t.wal with Some w -> Wal.truncate w | None -> ()

let adjacency_segment_bytes _ = 0

(* Creations replay under the ids the log recorded. Transactions that
   rolled back (or merely ran concurrently without committing first)
   consumed allocations that never reached the log, so replay
   re-allocates those ids as tombstones — the recovered store has the
   same holes, and every logged id lands where it was. *)
let align_allocation store target =
  while Record_store.count store < target do
    ignore (Record_store.allocate store : int)
  done

let replay_op t = function
  | Wal.Create_node { id; label; props } ->
    align_allocation t.nodes id;
    let got = create_node t ~label (Property.of_list props) in
    if got <> id then
      failwith (Printf.sprintf "Db.replay: node allocated at %d, log recorded %d" got id)
  | Wal.Create_edge { id; etype; src; dst; props } ->
    align_allocation t.rels id;
    let got = create_edge t ~etype ~src ~dst (Property.of_list props) in
    if got <> id then
      failwith (Printf.sprintf "Db.replay: edge allocated at %d, log recorded %d" got id)
  | Wal.Set_node_prop { node; key; value } -> set_node_property t node key value
  | Wal.Set_edge_prop { edge; key; value } -> set_edge_property t edge key value
  | Wal.Delete_edge id -> delete_edge t id
  | Wal.Delete_node id -> delete_node t id
  | Wal.Densify id -> densify_node t id
  | Wal.Create_index { label; property } -> create_index t ~label ~property
  | Wal.Drop_index { label; property } -> drop_index t ~label ~property

(* Apply one shipped WAL record as a transaction of its own: the
   replication path. The ops re-commit through this instance's WAL,
   so a replica's own log stays a faithful, LSN-aligned copy of the
   primary's — the property failover promotion relies on. *)
let apply_redo t ops = with_tx t (fun () -> List.iter (replay_op t) ops)

type recovery = { replayed : int; replay_last_lsn : int; stop : Wal.stop }

let recover_report ?snapshot t =
  (* Forget every transaction that was in flight: they never reached
     the log, so they never happened. *)
  List.iter (fun txn -> txn.tx_open <- false) t.open_txns;
  t.open_txns <- [];
  t.active <- None;
  gc_versions t;
  if Sim_disk.crashed t.disk then Sim_disk.reopen t.disk else Sim_disk.disarm_faults t.disk;
  let base =
    match snapshot with
    | Some path -> load path
    | None ->
      let s = t.settings in
      create ~config:s.s_config ?pool_pages:s.s_pool_pages
        ?checkpoint_dirty_pages:s.s_checkpoint_dirty_pages
        ~dense_node_threshold:s.s_dense_node_threshold ~wal:s.s_wal ()
  in
  (* Data pages of the crashed instance are never trusted; the intact
     record prefix of its log is the sole source of truth past the
     snapshot. Replaying re-commits each transaction, so the recovered
     instance's own log again covers everything past its snapshot. *)
  match t.wal with
  | None -> (base, { replayed = 0; replay_last_lsn = 0; stop = Wal.Clean })
  | Some w ->
    let (replayed, last), stop =
      Wal.fold_ops_stop w
        (fun (n, _) ~lsn ops ->
          with_tx base (fun () -> List.iter (replay_op base) ops);
          (n + 1, lsn))
        (0, Wal.base_lsn w)
    in
    Obs.Counter.incr ~by:replayed m_recovered_frames;
    (base, { replayed; replay_last_lsn = last; stop })

let recover ?snapshot t = fst (recover_report ?snapshot t)
