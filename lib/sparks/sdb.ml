module Bitmap = Mgq_bitmap.Bitmap
module Cost_model = Mgq_storage.Cost_model
module Value = Mgq_core.Value
open Mgq_core.Types

type attr_kind = Basic | Indexed | Unique

type value_type = Type_int | Type_float | Type_bool | Type_string

type type_info = {
  tname : string;
  kind : [ `Node | `Edge ];
  objects : Bitmap.t;
  mutable attrs : (string * int) list; (* attribute name -> attr id *)
}

type attr_info = {
  aname : string;
  owner_type : int;
  akind : attr_kind;
  vtype : value_type;
  values : (int, Value.t) Hashtbl.t;
  index : (int, Bitmap.t) Hashtbl.t option; (* value hash -> oids *)
}

type edge_info = { etype : int; tail : int; head : int }

type t = {
  cost : Cost_model.t;
  materialize : bool;
  mutable types : type_info array;
  mutable type_count : int;
  type_by_name : (string, int) Hashtbl.t;
  mutable attributes : attr_info array;
  mutable attr_count : int;
  nodes : (int, int) Hashtbl.t; (* node oid -> node type *)
  edges : (int, edge_info) Hashtbl.t;
  out_links : (int * int, Bitmap.t) Hashtbl.t; (* (etype, tail oid) -> edge oids *)
  in_links : (int * int, Bitmap.t) Hashtbl.t; (* (etype, head oid) -> edge oids *)
  out_neighbors : (int * int, Bitmap.t) Hashtbl.t; (* materialised neighbor index *)
  in_neighbors : (int * int, Bitmap.t) Hashtbl.t;
  mutable next_oid : int;
  mutable node_count : int;
  mutable edge_count : int;
}

(* Per-element cost of scanning a bitmap into a result: cheaper than a
   record chase but not free. *)
let bitmap_scan_ns = 12

let create ?config ?(materialize_neighbors = false) () =
  {
    cost = Cost_model.create ?config ();
    materialize = materialize_neighbors;
    types = Array.make 8 { tname = ""; kind = `Node; objects = Bitmap.create (); attrs = [] };
    type_count = 0;
    type_by_name = Hashtbl.create 16;
    attributes =
      Array.make 8
        {
          aname = "";
          owner_type = -1;
          akind = Basic;
          vtype = Type_int;
          values = Hashtbl.create 1;
          index = None;
        };
    attr_count = 0;
    nodes = Hashtbl.create 4096;
    edges = Hashtbl.create 4096;
    out_links = Hashtbl.create 4096;
    in_links = Hashtbl.create 4096;
    out_neighbors = Hashtbl.create 4096;
    in_neighbors = Hashtbl.create 4096;
    next_oid = 0;
    node_count = 0;
    edge_count = 0;
  }

let cost t = t.cost
let materializes_neighbors t = t.materialize

let charge ?(n = 1) t = Cost_model.record_db_hit ~n t.cost

let charge_scan t cardinality =
  Cost_model.advance_ns t.cost (cardinality * bitmap_scan_ns)

(* ---------------- schema ---------------- *)

let add_type t name kind =
  if Hashtbl.mem t.type_by_name name then
    raise (Schema_error (Printf.sprintf "type %S already exists" name));
  if t.type_count = Array.length t.types then begin
    let bigger = Array.make (2 * t.type_count) t.types.(0) in
    Array.blit t.types 0 bigger 0 t.type_count;
    t.types <- bigger
  end;
  let id = t.type_count in
  t.types.(id) <- { tname = name; kind; objects = Bitmap.create (); attrs = [] };
  t.type_count <- id + 1;
  Hashtbl.replace t.type_by_name name id;
  id

let index_remove_value index v oid =
  match Hashtbl.find_opt index (Mgq_core.Value.hash_fold v) with
  | Some bitmap -> Bitmap.remove bitmap oid
  | None -> ()

let new_node_type t name = add_type t name `Node
let new_edge_type t name = add_type t name `Edge

let find_type t name =
  match Hashtbl.find_opt t.type_by_name name with
  | Some id -> id
  | None -> raise (Schema_error (Printf.sprintf "unknown type %S" name))

let check_type t id =
  if id < 0 || id >= t.type_count then
    raise (Schema_error (Printf.sprintf "bad type id %d" id))

let type_name t id =
  check_type t id;
  t.types.(id).tname

let new_attribute t type_id name vtype kind =
  check_type t type_id;
  let info = t.types.(type_id) in
  if List.mem_assoc name info.attrs then
    raise (Schema_error (Printf.sprintf "attribute %S already exists on %s" name info.tname));
  if t.attr_count = Array.length t.attributes then begin
    let bigger = Array.make (2 * t.attr_count) t.attributes.(0) in
    Array.blit t.attributes 0 bigger 0 t.attr_count;
    t.attributes <- bigger
  end;
  let id = t.attr_count in
  t.attributes.(id) <-
    {
      aname = name;
      owner_type = type_id;
      akind = kind;
      vtype;
      values = Hashtbl.create 1024;
      index = (match kind with Basic -> None | Indexed | Unique -> Some (Hashtbl.create 1024));
    };
  t.attr_count <- id + 1;
  info.attrs <- (name, id) :: info.attrs;
  id

let find_attribute t type_id name =
  check_type t type_id;
  match List.assoc_opt name t.types.(type_id).attrs with
  | Some id -> id
  | None ->
    raise
      (Schema_error
         (Printf.sprintf "unknown attribute %S on type %s" name t.types.(type_id).tname))

let attribute_names t type_id =
  check_type t type_id;
  List.rev_map fst t.types.(type_id).attrs

(* ---------------- data ---------------- *)

let fresh_oid t =
  let oid = t.next_oid in
  t.next_oid <- oid + 1;
  oid

let new_node t type_id =
  check_type t type_id;
  if t.types.(type_id).kind <> `Node then
    raise (Schema_error (Printf.sprintf "%s is not a node type" t.types.(type_id).tname));
  (* Charge (and let an armed plan inject) before any bytes move, so
     a transient fault rejects the operation instead of orphaning a
     half-applied one from the caller's compensation journal. *)
  charge t;
  let oid = fresh_oid t in
  Bitmap.add t.types.(type_id).objects oid;
  Hashtbl.replace t.nodes oid type_id;
  t.node_count <- t.node_count + 1;
  oid

let link table key oid =
  match Hashtbl.find_opt table key with
  | Some bitmap -> Bitmap.add bitmap oid
  | None ->
    let bitmap = Bitmap.create () in
    Bitmap.add bitmap oid;
    Hashtbl.replace table key bitmap

let new_edge t type_id ~tail ~head =
  check_type t type_id;
  if t.types.(type_id).kind <> `Edge then
    raise (Schema_error (Printf.sprintf "%s is not an edge type" t.types.(type_id).tname));
  if not (Hashtbl.mem t.nodes tail) then raise (Node_not_found tail);
  if not (Hashtbl.mem t.nodes head) then raise (Node_not_found head);
  (* Charged up front (see [new_node]); the neighbor index costs
     extra work per edge. *)
  charge t;
  if t.materialize then charge ~n:2 t;
  let oid = fresh_oid t in
  Bitmap.add t.types.(type_id).objects oid;
  Hashtbl.replace t.edges oid { etype = type_id; tail; head };
  link t.out_links (type_id, tail) oid;
  link t.in_links (type_id, head) oid;
  if t.materialize then begin
    link t.out_neighbors (type_id, tail) head;
    link t.in_neighbors (type_id, head) tail
  end;
  t.edge_count <- t.edge_count + 1;
  oid

let remove_attribute_entries t oid owner_type =
  for attr = 0 to t.attr_count - 1 do
    let info = t.attributes.(attr) in
    if info.owner_type = owner_type then begin
      (match (info.index, Hashtbl.find_opt info.values oid) with
      | Some index, Some v -> index_remove_value index v oid
      | _ -> ());
      Hashtbl.remove info.values oid
    end
  done

let drop_edge t oid =
  let e =
    match Hashtbl.find_opt t.edges oid with
    | Some e -> e
    | None -> raise (Edge_not_found oid)
  in
  charge t;
  Bitmap.remove t.types.(e.etype).objects oid;
  (match Hashtbl.find_opt t.out_links (e.etype, e.tail) with
  | Some bitmap -> Bitmap.remove bitmap oid
  | None -> ());
  (match Hashtbl.find_opt t.in_links (e.etype, e.head) with
  | Some bitmap -> Bitmap.remove bitmap oid
  | None -> ());
  Hashtbl.remove t.edges oid;
  remove_attribute_entries t oid e.etype;
  if t.materialize then begin
    (* The neighbor bit survives while a parallel edge remains. *)
    let still_linked =
      match Hashtbl.find_opt t.out_links (e.etype, e.tail) with
      | Some bitmap ->
        Bitmap.exists (fun other -> (Hashtbl.find t.edges other).head = e.head) bitmap
      | None -> false
    in
    if not still_linked then begin
      (match Hashtbl.find_opt t.out_neighbors (e.etype, e.tail) with
      | Some bitmap -> Bitmap.remove bitmap e.head
      | None -> ());
      match Hashtbl.find_opt t.in_neighbors (e.etype, e.head) with
      | Some bitmap -> Bitmap.remove bitmap e.tail
      | None -> ()
    end
  end;
  t.edge_count <- t.edge_count - 1

let drop_node t oid =
  let node_type =
    match Hashtbl.find_opt t.nodes oid with
    | Some tp -> tp
    | None -> raise (Node_not_found oid)
  in
  for etype = 0 to t.type_count - 1 do
    if t.types.(etype).kind = `Edge then begin
      let incident table =
        match Hashtbl.find_opt table (etype, oid) with
        | Some bitmap -> not (Bitmap.is_empty bitmap)
        | None -> false
      in
      if incident t.out_links || incident t.in_links then
        failwith "Sdb.drop_node: node still has incident edges"
    end
  done;
  charge t;
  Bitmap.remove t.types.(node_type).objects oid;
  Hashtbl.remove t.nodes oid;
  remove_attribute_entries t oid node_type;
  t.node_count <- t.node_count - 1

(* ---------------- attributes ---------------- *)

let check_attr t id =
  if id < 0 || id >= t.attr_count then raise (Schema_error (Printf.sprintf "bad attribute id %d" id))

let value_matches_type vtype v =
  match (vtype, v) with
  | Type_int, Value.Int _
  | Type_float, Value.Float _
  | Type_bool, Value.Bool _
  | Type_string, Value.Str _ -> true
  | _ -> false

let owner_of_oid t oid =
  match Hashtbl.find_opt t.nodes oid with
  | Some type_id -> Some type_id
  | None -> ( match Hashtbl.find_opt t.edges oid with Some e -> Some e.etype | None -> None)

let index_remove index v oid =
  match Hashtbl.find_opt index (Value.hash_fold v) with
  | Some bitmap -> Bitmap.remove bitmap oid
  | None -> ()

let set_attribute t oid attr v =
  check_attr t attr;
  let info = t.attributes.(attr) in
  (match owner_of_oid t oid with
  | Some type_id when type_id = info.owner_type -> ()
  | _ ->
    raise
      (Schema_error (Printf.sprintf "object %d does not have attribute %S" oid info.aname)));
  charge t;
  let old_v = Hashtbl.find_opt info.values oid in
  (match v with
  | Value.Null -> Hashtbl.remove info.values oid
  | v when value_matches_type info.vtype v -> Hashtbl.replace info.values oid v
  | _ ->
    raise
      (Schema_error
         (Printf.sprintf "attribute %S: value type mismatch (%s)" info.aname
            (Value.type_name v))));
  match info.index with
  | None -> ()
  | Some index ->
    (match old_v with Some ov -> index_remove index ov oid | None -> ());
    (match v with
    | Value.Null -> ()
    | v ->
      if info.akind = Unique then begin
        match Hashtbl.find_opt index (Value.hash_fold v) with
        | Some existing when not (Bitmap.is_empty existing) ->
          (* Hash buckets may alias; verify before rejecting. *)
          let clash =
            Bitmap.exists
              (fun other ->
                other <> oid
                &&
                match Hashtbl.find_opt info.values other with
                | Some other_v -> Value.equal other_v v
                | None -> false)
              existing
          in
          if clash then
            failwith
              (Printf.sprintf "unique attribute %S: duplicate value %s" info.aname
                 (Value.to_display v))
        | _ -> ()
      end;
      link index (Value.hash_fold v) oid)

let get_attribute t oid attr =
  check_attr t attr;
  charge t;
  match Hashtbl.find_opt t.attributes.(attr).values oid with
  | Some v -> v
  | None -> Value.Null

(* ---------------- lookup ---------------- *)

let index_probe t attr v =
  let info = t.attributes.(attr) in
  match info.index with
  | None ->
    raise (Schema_error (Printf.sprintf "attribute %S is not indexed" info.aname))
  | Some index ->
    charge t;
    let result = Bitmap.create () in
    (match Hashtbl.find_opt index (Value.hash_fold v) with
    | None -> ()
    | Some candidates ->
      (* Verify against stored values to discard hash aliases. *)
      Bitmap.iter
        (fun oid ->
          match Hashtbl.find_opt info.values oid with
          | Some stored when Value.equal stored v -> Bitmap.add result oid
          | _ -> ())
        candidates;
      charge_scan t (Bitmap.cardinality candidates));
    result

let find_object t attr v =
  check_attr t attr;
  Bitmap.min_elt (index_probe t attr v)

let select t attr v =
  check_attr t attr;
  let info = t.attributes.(attr) in
  match info.index with
  | Some _ -> Objects.of_bitmap (index_probe t attr v)
  | None ->
    (* Scan every object of the owning type. *)
    let result = Bitmap.create () in
    Bitmap.iter
      (fun oid ->
        charge t;
        match Hashtbl.find_opt info.values oid with
        | Some stored when Value.equal stored v -> Bitmap.add result oid
        | _ -> ())
      t.types.(info.owner_type).objects;
    Objects.of_bitmap result

let select_range t attr ?min_v ?max_v () =
  check_attr t attr;
  let info = t.attributes.(attr) in
  let in_range v =
    (match min_v with
    | Some lo -> ( match Value.compare_values lo v with Some c -> c <= 0 | None -> false)
    | None -> true)
    && (match max_v with
       | Some hi -> ( match Value.compare_values v hi with Some c -> c <= 0 | None -> false)
       | None -> true)
  in
  let result = Bitmap.create () in
  Bitmap.iter
    (fun oid ->
      charge t;
      match Hashtbl.find_opt info.values oid with
      | Some stored when in_range stored -> Bitmap.add result oid
      | _ -> ())
    t.types.(info.owner_type).objects;
  Objects.of_bitmap result

let objects_of_type t type_id =
  check_type t type_id;
  charge t;
  let objs = t.types.(type_id).objects in
  charge_scan t (Bitmap.cardinality objs);
  Objects.of_bitmap (Bitmap.copy objs)

let count_objects t type_id =
  check_type t type_id;
  Bitmap.cardinality t.types.(type_id).objects

(* ---------------- navigation ---------------- *)

let edge_info t oid =
  match Hashtbl.find_opt t.edges oid with
  | Some e -> e
  | None -> raise (Edge_not_found oid)

let tail_of t oid = (edge_info t oid).tail
let head_of t oid = (edge_info t oid).head

let edge_peer t edge node =
  let e = edge_info t edge in
  if e.tail = node then e.head
  else if e.head = node then e.tail
  else invalid_arg "Sdb.edge_peer: node is not an endpoint"

let links_of t table etype node =
  charge t;
  match Hashtbl.find_opt table (etype, node) with
  | Some bitmap -> bitmap
  | None -> Bitmap.create ()

let explode t node etype dir =
  check_type t etype;
  if not (Hashtbl.mem t.nodes node) then raise (Node_not_found node);
  let result =
    match dir with
    | Out -> Bitmap.copy (links_of t t.out_links etype node)
    | In -> Bitmap.copy (links_of t t.in_links etype node)
    | Both -> Bitmap.union (links_of t t.out_links etype node) (links_of t t.in_links etype node)
  in
  charge_scan t (Bitmap.cardinality result);
  Objects.of_bitmap result

let neighbors t node etype dir =
  check_type t etype;
  if not (Hashtbl.mem t.nodes node) then raise (Node_not_found node);
  if t.materialize then begin
    let result =
      match dir with
      | Out -> Bitmap.copy (links_of t t.out_neighbors etype node)
      | In -> Bitmap.copy (links_of t t.in_neighbors etype node)
      | Both ->
        Bitmap.union (links_of t t.out_neighbors etype node) (links_of t t.in_neighbors etype node)
    in
    charge_scan t (Bitmap.cardinality result);
    Objects.of_bitmap result
  end
  else begin
    (* Derive neighbors from edge oids: one value fetch per edge. *)
    let result = Bitmap.create () in
    let from_links table pick =
      let links = links_of t table etype node in
      Bitmap.iter
        (fun edge ->
          charge t;
          Bitmap.add result (pick (edge_info t edge)))
        links
    in
    (match dir with
    | Out -> from_links t.out_links (fun e -> e.head)
    | In -> from_links t.in_links (fun e -> e.tail)
    | Both ->
      from_links t.out_links (fun e -> e.head);
      from_links t.in_links (fun e -> e.tail));
    Objects.of_bitmap result
  end

let degree t node etype dir =
  check_type t etype;
  match dir with
  | Out -> Bitmap.cardinality (links_of t t.out_links etype node)
  | In -> Bitmap.cardinality (links_of t t.in_links etype node)
  | Both ->
    Bitmap.cardinality
      (Bitmap.union (links_of t t.out_links etype node) (links_of t t.in_links etype node))

let node_count t = t.node_count
let edge_count t = t.edge_count

let memory_words t =
  let sum_table table =
    Hashtbl.fold (fun _ bitmap acc -> acc + Bitmap.memory_words bitmap) table 0
  in
  let type_words = ref 0 in
  for i = 0 to t.type_count - 1 do
    type_words := !type_words + Bitmap.memory_words t.types.(i).objects
  done;
  let attr_words = ref 0 in
  for i = 0 to t.attr_count - 1 do
    let info = t.attributes.(i) in
    attr_words := !attr_words + (3 * Hashtbl.length info.values);
    match info.index with
    | Some index -> attr_words := !attr_words + sum_table index
    | None -> ()
  done;
  !type_words + !attr_words + sum_table t.out_links + sum_table t.in_links
  + sum_table t.out_neighbors + sum_table t.in_neighbors
  + (4 * Hashtbl.length t.edges)

(* ---------------- persistence (v2 codec snapshot) ---------------- *)

(* The snapshot ships only primary state: schema, per-type object
   bitmaps (delta/word-truncated via [Bitmap.encode]), attribute
   values, and the node/edge tables. Everything derived — inverted
   attribute indexes, link maps, materialised neighbor maps — is
   rebuilt at load time, so a snapshot can never carry an index
   inconsistent with its values. v1 marshalled the live heap. *)

module Codec = Mgq_codec.Codec

let save_magic = "MGQSPK2\n"

let fail fmt = Printf.ksprintf (fun msg -> raise (Codec.Error msg)) fmt

let sorted_entries tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let encode_image t =
  let e = Codec.Enc.create ~size:(64 * 1024) () in
  let { Cost_model.record_access_ns; page_hit_ns; page_fault_ns; page_flush_ns; seek_penalty_ns }
      =
    Cost_model.config t.cost
  in
  Codec.Enc.varint e record_access_ns;
  Codec.Enc.varint e page_hit_ns;
  Codec.Enc.varint e page_fault_ns;
  Codec.Enc.varint e page_flush_ns;
  Codec.Enc.varint e seek_penalty_ns;
  Codec.Enc.bool e t.materialize;
  Codec.Enc.varint e t.type_count;
  for i = 0 to t.type_count - 1 do
    let info = t.types.(i) in
    Codec.Enc.string e info.tname;
    Codec.Enc.u8 e (match info.kind with `Node -> 0 | `Edge -> 1);
    Bitmap.encode e info.objects;
    Codec.Enc.list e
      (fun e (name, id) ->
        Codec.Enc.string e name;
        Codec.Enc.varint e id)
      info.attrs
  done;
  Codec.Enc.varint e t.attr_count;
  for i = 0 to t.attr_count - 1 do
    let info = t.attributes.(i) in
    Codec.Enc.string e info.aname;
    Codec.Enc.varint e info.owner_type;
    Codec.Enc.u8 e (match info.akind with Basic -> 0 | Indexed -> 1 | Unique -> 2);
    Codec.Enc.u8 e
      (match info.vtype with Type_int -> 0 | Type_float -> 1 | Type_bool -> 2 | Type_string -> 3);
    Codec.Enc.list e
      (fun e (oid, v) ->
        Codec.Enc.varint e oid;
        Codec.Enc.value e v)
      (sorted_entries info.values)
  done;
  Codec.Enc.list e
    (fun e (oid, tp) ->
      Codec.Enc.varint e oid;
      Codec.Enc.varint e tp)
    (sorted_entries t.nodes);
  Codec.Enc.list e
    (fun e (oid, { etype; tail; head }) ->
      Codec.Enc.varint e oid;
      Codec.Enc.varint e etype;
      Codec.Enc.varint e tail;
      Codec.Enc.varint e head)
    (sorted_entries t.edges);
  Codec.Enc.varint e t.next_oid;
  Codec.Enc.contents e

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
  let materialize = Codec.Dec.bool d in
  let t = create ~config ~materialize_neighbors:materialize () in
  let type_count = Codec.Dec.varint d in
  for _ = 1 to type_count do
    let tname = Codec.Dec.string d in
    let kind = match Codec.Dec.u8 d with 0 -> `Node | 1 -> `Edge | k -> fail "Sdb: type kind %d" k in
    let objects = Bitmap.decode d in
    let attrs =
      Codec.Dec.list d (fun d ->
          let name = Codec.Dec.string d in
          (name, Codec.Dec.varint d))
    in
    let id = add_type t tname kind in
    t.types.(id) <- { (t.types.(id)) with objects; attrs }
  done;
  let attr_count = Codec.Dec.varint d in
  for _ = 1 to attr_count do
    let aname = Codec.Dec.string d in
    let owner_type = Codec.Dec.varint d in
    if owner_type >= t.type_count then fail "Sdb: attribute %S on unknown type" aname;
    let akind =
      match Codec.Dec.u8 d with
      | 0 -> Basic
      | 1 -> Indexed
      | 2 -> Unique
      | k -> fail "Sdb: attribute kind %d" k
    in
    let vtype =
      match Codec.Dec.u8 d with
      | 0 -> Type_int
      | 1 -> Type_float
      | 2 -> Type_bool
      | 3 -> Type_string
      | k -> fail "Sdb: value type %d" k
    in
    let entries =
      Codec.Dec.list d (fun d ->
          let oid = Codec.Dec.varint d in
          (oid, Codec.Dec.value d))
    in
    let values = Hashtbl.create (max 16 (List.length entries)) in
    List.iter (fun (oid, v) -> Hashtbl.replace values oid v) entries;
    let index =
      match akind with
      | Basic -> None
      | Indexed | Unique ->
        (* Derived state: rebuilt from the values, never shipped. *)
        let idx = Hashtbl.create 1024 in
        List.iter (fun (oid, v) -> link idx (Value.hash_fold v) oid) entries;
        Some idx
    in
    if t.attr_count = Array.length t.attributes then begin
      let bigger = Array.make (2 * t.attr_count) t.attributes.(0) in
      Array.blit t.attributes 0 bigger 0 t.attr_count;
      t.attributes <- bigger
    end;
    let id = t.attr_count in
    t.attributes.(id) <- { aname; owner_type; akind; vtype; values; index };
    t.attr_count <- id + 1
  done;
  List.iter
    (fun (oid, tp) -> Hashtbl.replace t.nodes oid tp)
    (Codec.Dec.list d (fun d ->
         let oid = Codec.Dec.varint d in
         (oid, Codec.Dec.varint d)));
  List.iter
    (fun (oid, e) ->
      Hashtbl.replace t.edges oid e;
      link t.out_links (e.etype, e.tail) oid;
      link t.in_links (e.etype, e.head) oid;
      if t.materialize then begin
        link t.out_neighbors (e.etype, e.tail) e.head;
        link t.in_neighbors (e.etype, e.head) e.tail
      end)
    (Codec.Dec.list d (fun d ->
         let oid = Codec.Dec.varint d in
         let etype = Codec.Dec.varint d in
         let tail = Codec.Dec.varint d in
         (oid, { etype; tail; head = Codec.Dec.varint d })));
  t.next_oid <- Codec.Dec.varint d;
  Codec.Dec.expect_end d;
  t.node_count <- Hashtbl.length t.nodes;
  t.edge_count <- Hashtbl.length t.edges;
  t

let save t path =
  let payload = encode_image t in
  let meta = Bytes.create 12 in
  Bytes.set_int64_le meta 0 (Int64.of_int (String.length payload));
  Bytes.set_int32_le meta 8 (Mgq_util.Crc32.digest payload);
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc save_magic;
      output_bytes oc meta;
      output_string oc payload)

let load path =
  let ic = try open_in_bin path with Sys_error msg -> failwith ("Sdb.load: " ^ msg) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let read_exactly what n =
        try really_input_string ic n
        with End_of_file -> failwith ("Sdb.load: truncated " ^ what)
      in
      let header = read_exactly "header" (String.length save_magic) in
      if header <> save_magic then failwith "Sdb.load: not a bitmap database file";
      let meta = Bytes.of_string (read_exactly "header" 12) in
      let len = Int64.to_int (Bytes.get_int64_le meta 0) in
      if len < 0 || len > Sys.max_string_length then
        failwith "Sdb.load: implausible payload length";
      let payload = read_exactly "payload" len in
      if Mgq_util.Crc32.digest payload <> Bytes.get_int32_le meta 8 then
        failwith "Sdb.load: checksum mismatch";
      try decode_image payload
      with Codec.Error msg -> failwith ("Sdb.load: corrupt snapshot: " ^ msg))
