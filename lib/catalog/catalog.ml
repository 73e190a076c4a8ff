module Value = Mgq_core.Value
module Obs = Mgq_obs.Obs
module Int_tbl = Mgq_util.Int_tbl
open Mgq_core.Types

let m_events = Obs.counter "catalog.events"
let m_rebuilds = Obs.counter "catalog.rebuilds"
let m_epoch = Obs.gauge "catalog.epoch"

type event =
  | Node_added of { node : int; label : string; props : (string * Value.t) list }
  | Node_removed of { node : int; props : (string * Value.t) list }
  | Edge_added of { etype : string; src : int; dst : int }
  | Edge_removed of { etype : string; src : int; dst : int }
  | Prop_set of { node : int; key : string; old_v : Value.t; new_v : Value.t }

(* Log2-bucket histogram over the typed degrees of the nodes that have
   at least one matching edge; bucket i covers degrees
   [2^i, 2^(i+1)). Zero-degree nodes are implicit: label count minus
   the histogram population. *)
let n_buckets = 62

type dstats = { mutable d_edges : int; d_buckets : int array }

(* Value counts keyed by the equality of a generic [Hashtbl],
   [compare a b = 0]: [Int 1] and [Float 1.] stay two keys, and NaN
   is one key. Ints hash to themselves; floats hash normalised, so
   [-0.] meets [0.] and every NaN meets every other. *)
module Value_tbl = Hashtbl.Make (struct
  type t = Value.t

  let equal (a : t) (b : t) =
    match (a, b) with
    | Null, Null -> true
    | Bool x, Bool y -> Bool.equal x y
    | Int x, Int y -> Int.equal x y
    | Float x, Float y -> Float.compare x y = 0
    | Str x, Str y -> String.equal x y
    | _ -> false

  let hash : t -> int = function
    | Null -> 0
    | Bool b -> Bool.to_int b
    | Int i -> i land max_int
    | Float f -> Float.hash f
    | Str s -> String.hash s
end)

module Str_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.hash
end)

(* Value counts of one (label, key) property: exact, so incremental
   and rebuilt stats can agree bit-for-bit. [p_rows] is the running
   total of the counts; [p_sketch] memoises the top-[sketch_size]
   values until the next count change. *)
type pstats = {
  p_counts : int ref Value_tbl.t;
  mutable p_rows : int;
  mutable p_sketch : (Value.t * int) list option;
}

let sketch_size = 10

(* Labels and edge types are interned to dense codes, in order of
   first sighting; there are only a few of each. A label's record
   holds its node count (0 = absent) and its property tables by key. *)
type label_stats = { l_name : string; mutable l_nodes : int; l_props : pstats Str_tbl.t }

(* One (edge type, direction): [degs] is the typed degree by node id
   (0 = no edge), [hists] the degree histogram by source-label code.
   A histogram exists for every code; the statistics hold the
   non-empty ones. *)
type slot = { mutable degs : int array; mutable hists : dstats array }

(* An edge type's edge count (0 = absent), its two slots, and the
   edge count per (source label, target label) code pair. *)
type etype_stats = {
  e_name : string;
  mutable e_edges : int;
  e_out : slot;
  e_in : slot;
  e_ends : int ref Int_tbl.t;
}

type t = {
  mutable epoch : int;
  mutable rebuilding : bool;
  label_codes : int Str_tbl.t;
  mutable labels : label_stats array;  (** by label code *)
  etype_codes : int Str_tbl.t;
  mutable etypes : etype_stats array;  (** by edge-type code *)
  mutable node_label : int array;  (** by node id: label code, -1 = absent *)
  mutable live : int;  (** nodes with a label code *)
}

(* Code 0: the label of a node the catalog has not seen added. *)
let unknown = 0

let label_code t name =
  match Str_tbl.find_opt t.label_codes name with
  | Some c -> c
  | None ->
    let c = Array.length t.labels in
    Str_tbl.add t.label_codes name c;
    t.labels <-
      Array.append t.labels [| { l_name = name; l_nodes = 0; l_props = Str_tbl.create 8 } |];
    c

let new_slot () = { degs = [||]; hists = [||] }

let etype_code t name =
  match Str_tbl.find_opt t.etype_codes name with
  | Some c -> c
  | None ->
    let c = Array.length t.etypes in
    Str_tbl.add t.etype_codes name c;
    t.etypes <-
      Array.append t.etypes
        [|
          {
            e_name = name;
            e_edges = 0;
            e_out = new_slot ();
            e_in = new_slot ();
            e_ends = Int_tbl.create 8;
          };
        |];
    c

(* Empty the statistics; only the code of "?" stays interned. *)
let reset t =
  Str_tbl.reset t.label_codes;
  t.labels <- [||];
  ignore (label_code t "?" : int);
  Str_tbl.reset t.etype_codes;
  t.etypes <- [||];
  t.node_label <- [||];
  t.live <- 0

let create () =
  let t =
    {
      epoch = 0;
      rebuilding = false;
      label_codes = Str_tbl.create 8;
      labels = [||];
      etype_codes = Str_tbl.create 8;
      etypes = [||];
      node_label = [||];
      live = 0;
    }
  in
  reset t;
  t

let copy_dstats ds = { d_edges = ds.d_edges; d_buckets = Array.copy ds.d_buckets }
let copy_slot s = { degs = Array.copy s.degs; hists = Array.map copy_dstats s.hists }

let copy_pstats p =
  let counts = Value_tbl.copy p.p_counts in
  Value_tbl.filter_map_inplace (fun _ r -> Some (ref !r)) counts;
  { p with p_counts = counts }

let copy t =
  {
    t with
    label_codes = Str_tbl.copy t.label_codes;
    labels =
      Array.map
        (fun l ->
          let props = Str_tbl.copy l.l_props in
          Str_tbl.filter_map_inplace (fun _ p -> Some (copy_pstats p)) props;
          { l with l_props = props })
        t.labels;
    etype_codes = Str_tbl.copy t.etype_codes;
    etypes =
      Array.map
        (fun e ->
          let ends = Int_tbl.copy e.e_ends in
          Int_tbl.filter_map_inplace (fun _ r -> Some (ref !r)) ends;
          { e with e_out = copy_slot e.e_out; e_in = copy_slot e.e_in; e_ends = ends })
        t.etypes;
    node_label = Array.copy t.node_label;
  }

let epoch t = t.epoch

let bump_epoch t =
  t.epoch <- t.epoch + 1;
  Obs.Gauge.set m_epoch (float_of_int t.epoch)

(* A shape change: something a cached plan may have assumed absent now
   exists. Rebuilds bump once at the end instead. *)
let shape_changed t = if not t.rebuilding then bump_epoch t

(* ---------------- counts and growth ---------------- *)

(* A count where 0 means absent: a decrement never takes it below 0,
   and an increment from 0 is a first sighting. *)
let bumped t count delta =
  if count > 0 then max 0 (count + delta)
  else if delta > 0 then begin
    shape_changed t;
    delta
  end
  else 0

(* [a] with room for index [i]; new slots hold [fill]. *)
let grown a i fill =
  let b = Array.make (max (i + 1) (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* ---------------- degree histograms ---------------- *)

let bucket_of d =
  let rec go i v = if v <= 1 then i else go (i + 1) (v lsr 1) in
  go 0 d

let dstats_empty ds = ds.d_edges = 0 && Array.for_all (fun b -> b = 0) ds.d_buckets

let histogram slot label =
  if label >= Array.length slot.hists then begin
    let old = slot.hists in
    slot.hists <-
      Array.init (label + 1) (fun i ->
          if i < Array.length old then old.(i)
          else { d_edges = 0; d_buckets = Array.make n_buckets 0 })
  end;
  slot.hists.(label)

let bump_degree slot ~node ~label delta =
  let old_d = if node < Array.length slot.degs then slot.degs.(node) else 0 in
  let new_d = old_d + delta in
  if new_d > 0 then begin
    if node >= Array.length slot.degs then slot.degs <- grown slot.degs node 0;
    slot.degs.(node) <- new_d
  end
  else if old_d > 0 then slot.degs.(node) <- 0;
  let ds = histogram slot label in
  if old_d >= 1 then ds.d_buckets.(bucket_of old_d) <- ds.d_buckets.(bucket_of old_d) - 1;
  if new_d >= 1 then ds.d_buckets.(bucket_of new_d) <- ds.d_buckets.(bucket_of new_d) + 1;
  ds.d_edges <- ds.d_edges + delta

(* ---------------- property value counts ---------------- *)

let prop_bump t l ~key (value : Value.t) delta =
  match value with
  | Null -> ()
  | _ ->
    let p =
      match Str_tbl.find_opt l.l_props key with
      | Some p -> p
      | None ->
        let p = { p_counts = Value_tbl.create 64; p_rows = 0; p_sketch = None } in
        Str_tbl.add l.l_props key p;
        shape_changed t;
        p
    in
    (match Value_tbl.find_opt p.p_counts value with
    | Some r ->
      let n = max 0 (!r + delta) in
      p.p_rows <- p.p_rows + n - !r;
      if n = 0 then Value_tbl.remove p.p_counts value else r := n
    | None ->
      if delta > 0 then begin
        Value_tbl.add p.p_counts value (ref delta);
        p.p_rows <- p.p_rows + delta
      end);
    if Option.is_some p.p_sketch then p.p_sketch <- None;
    if Value_tbl.length p.p_counts = 0 then Str_tbl.remove l.l_props key

(* ---------------- event application ---------------- *)

let label_of t node =
  if node < Array.length t.node_label then
    let c = t.node_label.(node) in
    if c >= 0 then c else unknown
  else unknown

(* Source label code in the high half, target label code in the low. *)
let ends_key src dst = (src lsl 30) lor dst
let ends_src key = key lsr 30
let ends_dst key = key land ((1 lsl 30) - 1)

let bump_edge t ~etype ~src ~dst delta =
  let e = t.etypes.(etype_code t etype) in
  let src_label = label_of t src and dst_label = label_of t dst in
  e.e_edges <- bumped t e.e_edges delta;
  let key = ends_key src_label dst_label in
  (match Int_tbl.find_opt e.e_ends key with
  | Some r ->
    r := !r + delta;
    if !r <= 0 then Int_tbl.remove e.e_ends key
  | None ->
    if delta > 0 then begin
      Int_tbl.add e.e_ends key (ref delta);
      shape_changed t
    end);
  bump_degree e.e_out ~node:src ~label:src_label delta;
  bump_degree e.e_in ~node:dst ~label:dst_label delta

let apply t event =
  Obs.Counter.incr m_events;
  match event with
  | Node_added { node; label; props } ->
    let code = label_code t label in
    if node >= Array.length t.node_label then t.node_label <- grown t.node_label node (-1);
    if t.node_label.(node) < 0 then t.live <- t.live + 1;
    t.node_label.(node) <- code;
    let l = t.labels.(code) in
    l.l_nodes <- bumped t l.l_nodes 1;
    List.iter (fun (key, v) -> prop_bump t l ~key v 1) props
  | Node_removed { node; props } ->
    let code = label_of t node in
    if node < Array.length t.node_label && t.node_label.(node) >= 0 then begin
      t.node_label.(node) <- -1;
      t.live <- t.live - 1
    end;
    let l = t.labels.(code) in
    l.l_nodes <- bumped t l.l_nodes (-1);
    List.iter (fun (key, v) -> prop_bump t l ~key v (-1)) props
  | Edge_added { etype; src; dst } -> bump_edge t ~etype ~src ~dst 1
  | Edge_removed { etype; src; dst } -> bump_edge t ~etype ~src ~dst (-1)
  | Prop_set { node; key; old_v; new_v } ->
    let l = t.labels.(label_of t node) in
    prop_bump t l ~key old_v (-1);
    prop_bump t l ~key new_v 1

let rebuild t ~nodes ~edges =
  Obs.Counter.incr m_rebuilds;
  reset t;
  t.rebuilding <- true;
  Fun.protect
    ~finally:(fun () -> t.rebuilding <- false)
    (fun () ->
      Seq.iter (fun (node, label, props) -> apply t (Node_added { node; label; props })) nodes;
      Seq.iter (fun (etype, src, dst) -> apply t (Edge_added { etype; src; dst })) edges);
  bump_epoch t

(* ---------------- estimator accessors ---------------- *)

let total_nodes t = t.live

let label_count t label =
  match Str_tbl.find_opt t.label_codes label with Some c -> t.labels.(c).l_nodes | None -> 0

let labels t =
  Array.fold_left (fun acc l -> if l.l_nodes > 0 then l.l_name :: acc else acc) [] t.labels
  |> List.sort String.compare

let prop_table t ~label ~key =
  match Str_tbl.find_opt t.label_codes label with
  | Some c -> Str_tbl.find_opt t.labels.(c).l_props key
  | None -> None

let distinct_count t ~label ~key =
  match prop_table t ~label ~key with Some p -> Value_tbl.length p.p_counts | None -> 0

let prop_rows t ~label ~key =
  match prop_table t ~label ~key with Some p -> p.p_rows | None -> 0

(* Count-descending, ties by the smaller value: Topn's order. *)
let top_values p k =
  let top = Mgq_util.Topn.create k in
  Value_tbl.iter (fun v r -> Mgq_util.Topn.add top ~key:v ~score:!r ~value:()) p.p_counts;
  List.map (fun (v, c, ()) -> (v, c)) (Mgq_util.Topn.to_list top)

let sketch p =
  match p.p_sketch with
  | Some s -> s
  | None ->
    let s = top_values p sketch_size in
    p.p_sketch <- Some s;
    s

let mcv t ?(k = sketch_size) ~label ~key () =
  match prop_table t ~label ~key with
  | None -> []
  | Some p ->
    if k = sketch_size then sketch p
    else if k < sketch_size then List.filteri (fun i _ -> i < k) (sketch p)
    else top_values p k

let eq_rows t ~label ~key value =
  let n = prop_rows t ~label ~key and d = distinct_count t ~label ~key in
  if d = 0 then 0.
  else
    match value with
    | None -> float_of_int n /. float_of_int d
    | Some v -> (
      let sketch = mcv t ~label ~key () in
      match List.assoc_opt v sketch with
      | Some c -> float_of_int c
      | None ->
        (* Uniform tail behind the sketch. *)
        let mass = List.fold_left (fun acc (_, c) -> acc + c) 0 sketch in
        let tail_values = d - List.length sketch in
        if tail_values <= 0 then 0.
        else float_of_int (n - mass) /. float_of_int tail_values)

type degree_summary = {
  ds_edges : int;
  ds_sources : int;
  ds_min : int;
  ds_max : int;
  ds_avg : float;
}

(* Every non-empty histogram as ((source label, etype, out), stats). *)
let histograms t =
  let of_slot e out slot acc =
    let acc = ref acc in
    Array.iteri
      (fun code ds ->
        if not (dstats_empty ds) then acc := ((t.labels.(code).l_name, e.e_name, out), ds) :: !acc)
      slot.hists;
    !acc
  in
  Array.fold_left (fun acc e -> of_slot e true e.e_out (of_slot e false e.e_in acc)) [] t.etypes

(* Sorted by the names, "in" before "out": the rendering order. *)
let sorted_histograms t =
  List.sort
    (fun ((l, ty, o), _) ((l', ty', o'), _) ->
      match String.compare l l' with
      | 0 -> ( match String.compare ty ty' with 0 -> Bool.compare o o' | c -> c)
      | c -> c)
    (histograms t)

let degree_summary t ~src_label ~etype ~dir =
  let outs = match dir with Out -> [ true ] | In -> [ false ] | Both -> [ true; false ] in
  let matches (l, ty, o) =
    (match src_label with Some want -> String.equal l want | None -> true)
    && (match etype with Some want -> String.equal ty want | None -> true)
    && List.mem o outs
  in
  let sources =
    match src_label with Some l -> label_count t l | None -> total_nodes t
  in
  let matched = List.filter (fun (key, _) -> matches key) (histograms t) in
  let edges = ref 0 and dmin = ref 0 and dmax = ref 0 in
  List.iter
    (fun (_, ds) ->
      edges := !edges + ds.d_edges;
      let highest = ref (-1) in
      Array.iteri (fun i b -> if b > 0 then highest := i) ds.d_buckets;
      (* Upper bounds from several histograms add: a source's total
         degree is at most the sum of its per-histogram maxima. *)
      if !highest >= 0 then dmax := !dmax + (1 lsl (!highest + 1)) - 1)
    matched;
  (* A non-zero floor is only sound when one histogram covers every
     candidate source: a single (label, type, direction) whose
     population equals the label's node count. *)
  (match (matched, src_label) with
  | [ ((l, _, _), ds) ], Some want when String.equal l want ->
    let populated = Array.fold_left ( + ) 0 ds.d_buckets in
    let lowest = ref (-1) in
    Array.iteri (fun i b -> if b > 0 && !lowest < 0 then lowest := i) ds.d_buckets;
    if populated >= label_count t l && !lowest >= 0 then dmin := 1 lsl !lowest
  | _ -> ());
  {
    ds_edges = !edges;
    ds_sources = sources;
    ds_min = !dmin;
    ds_max = !dmax;
    ds_avg = float_of_int !edges /. float_of_int (max 1 sources);
  }

let endpoint_labels t ~etype ~dir =
  match Str_tbl.find_opt t.etype_codes etype with
  | None -> []
  | Some c ->
    let name code = t.labels.(code).l_name in
    Int_tbl.fold
      (fun key _ acc ->
        match dir with
        | Out -> name (ends_dst key) :: acc
        | In -> name (ends_src key) :: acc
        | Both -> name (ends_src key) :: name (ends_dst key) :: acc)
      t.etypes.(c).e_ends []
    |> List.sort_uniq String.compare

(* Every endpoint pair as ((etype, source label, target label), edges),
   sorted by the names. *)
let endpoints t =
  let name code = t.labels.(code).l_name in
  Array.fold_left
    (fun acc e ->
      Int_tbl.fold
        (fun key r acc -> ((e.e_name, name (ends_src key), name (ends_dst key)), !r) :: acc)
        e.e_ends acc)
    [] t.etypes
  |> List.sort (fun ((ty, s, d), _) ((ty', s', d'), _) ->
         List.compare String.compare [ ty; s; d ] [ ty'; s'; d' ])

(* Every (label, key) property table, sorted by the names. *)
let prop_tables t =
  Array.fold_left
    (fun acc l -> Str_tbl.fold (fun key p acc -> ((l.l_name, key), p) :: acc) l.l_props acc)
    [] t.labels
  |> List.sort (fun ((l, k), _) ((l', k'), _) ->
         match String.compare l l' with 0 -> String.compare k k' | c -> c)

(* ---------------- rendering ---------------- *)

let dir_name out = if out then "out" else "in"

let dump t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "nodes %d" (total_nodes t);
  List.iter (fun l -> line "label %s %d" l (label_count t l)) (labels t);
  Array.to_list t.etypes
  |> List.filter (fun e -> e.e_edges > 0)
  |> List.sort (fun a b -> String.compare a.e_name b.e_name)
  |> List.iter (fun e -> line "etype %s %d" e.e_name e.e_edges);
  List.iter
    (fun ((l, ty, out), ds) ->
      let buckets =
        Array.to_list ds.d_buckets
        |> List.mapi (fun i b -> (i, b))
        |> List.filter (fun (_, b) -> b > 0)
        |> List.map (fun (i, b) -> Printf.sprintf "%d:%d" i b)
        |> String.concat ","
      in
      line "degree %s/%s/%s edges=%d buckets=[%s]" l ty (dir_name out) ds.d_edges buckets)
    (sorted_histograms t);
  List.iter
    (fun ((l, k), p) ->
      let values =
        Value_tbl.fold (fun v r acc -> (v, !r) :: acc) p.p_counts []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      line "prop %s.%s distinct=%d rows=%d" l k (Value_tbl.length p.p_counts) p.p_rows;
      List.iter
        (fun (v, c) -> line "  value %s %s = %d" (Value.type_name v) (Value.to_display v) c)
        values)
    (prop_tables t);
  List.iter (fun ((ty, s, d), c) -> line "endpoint %s: %s->%s %d" ty s d c) (endpoints t);
  Buffer.contents buf

let render t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "stats epoch %d, %d nodes" (t.epoch) (total_nodes t);
  line "";
  line "labels:";
  List.iter (fun l -> line "  :%-12s %d nodes" l (label_count t l)) (labels t);
  line "";
  line "degrees (source label / type / direction):";
  List.iter
    (fun ((l, ty, out), ds) ->
      let s = degree_summary t ~src_label:(Some l) ~etype:(Some ty)
                ~dir:(if out then Out else In) in
      line "  :%s-[:%s]-%s  %d edges, avg %.2f, degree in [%d, %d]" l ty (dir_name out)
        ds.d_edges s.ds_avg s.ds_min s.ds_max)
    (sorted_histograms t);
  line "";
  line "properties:";
  List.iter
    (fun ((l, k), _) ->
      let top =
        mcv t ~k:3 ~label:l ~key:k ()
        |> List.map (fun (v, c) -> Printf.sprintf "%s=%d" (Value.to_display v) c)
        |> String.concat ", "
      in
      line "  :%s(%s)  %d rows, %d distinct; top: %s" l k (prop_rows t ~label:l ~key:k)
        (distinct_count t ~label:l ~key:k) top)
    (prop_tables t);
  line "";
  line "endpoint pairs:";
  List.iter (fun ((ty, s, d), c) -> line "  (:%s)-[:%s]->(:%s)  %d edges" s ty d c) (endpoints t);
  Buffer.contents buf
