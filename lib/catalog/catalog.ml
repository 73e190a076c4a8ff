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

(* Value counts of one (label, key) property: exact, so incremental
   and rebuilt stats can agree bit-for-bit. [p_rows] is the running
   total of the counts; [p_sketch] memoises the top-[sketch_size]
   values until the next count change. *)
type pstats = {
  p_counts : (Value.t, int ref) Hashtbl.t;
  mutable p_rows : int;
  mutable p_sketch : (Value.t * int) list option;
}

let sketch_size = 10

(* (node, etype, out) keys, compared and hashed without the polymorphic
   primitives: every edge write updates two of them. The node id
   spreads the keys; the etype's length is enough to separate a node's
   few edge types. *)
module Deg_tbl = Hashtbl.Make (struct
  type t = int * string * bool

  let equal (n, e, o) (n', e', o') = n = n' && o = o' && String.equal e e'
  let hash (n, e, o) = ((((n * 31) + String.length e) * 2) + Bool.to_int o) land max_int
end)

type t = {
  mutable epoch : int;
  mutable rebuilding : bool;
  node_label : string Int_tbl.t;
  label_tbl : (string, int ref) Hashtbl.t;
  etype_tbl : (string, int ref) Hashtbl.t;
  (* (node, etype, out) -> typed degree; the private table that makes
     histogram moves O(1) without touching the relationship chains. *)
  node_deg : int ref Deg_tbl.t;
  (* (src_label, etype, out) -> degree histogram *)
  deg : (string * string * bool, dstats) Hashtbl.t;
  (* (label, key) -> value counts; distinct = table size, MCV = top-k. *)
  props : (string * string, pstats) Hashtbl.t;
  (* (etype, src_label, dst_label) -> edge count *)
  endpoints : (string * string * string, int ref) Hashtbl.t;
}

let create () =
  {
    epoch = 0;
    rebuilding = false;
    node_label = Int_tbl.create 1024;
    label_tbl = Hashtbl.create 8;
    etype_tbl = Hashtbl.create 8;
    node_deg = Deg_tbl.create 1024;
    deg = Hashtbl.create 16;
    props = Hashtbl.create 16;
    endpoints = Hashtbl.create 16;
  }

(* [Hashtbl.copy] shares the values; every mutable one is copied too. *)
let copy_with f tbl =
  let c = Hashtbl.copy tbl in
  Hashtbl.filter_map_inplace (fun _ v -> Some (f v)) c;
  c

let copy_ref r = ref !r

let copy t =
  {
    t with
    node_label = Int_tbl.copy t.node_label;
    label_tbl = copy_with copy_ref t.label_tbl;
    etype_tbl = copy_with copy_ref t.etype_tbl;
    node_deg =
      (let c = Deg_tbl.copy t.node_deg in
       Deg_tbl.filter_map_inplace (fun _ r -> Some (copy_ref r)) c;
       c);
    deg =
      copy_with (fun ds -> { d_edges = ds.d_edges; d_buckets = Array.copy ds.d_buckets }) t.deg;
    props = copy_with (fun p -> { p with p_counts = copy_with copy_ref p.p_counts }) t.props;
    endpoints = copy_with copy_ref t.endpoints;
  }

let epoch t = t.epoch

let bump_epoch t =
  t.epoch <- t.epoch + 1;
  Obs.Gauge.set m_epoch (float_of_int t.epoch)

(* A shape change: something a cached plan may have assumed absent now
   exists. Rebuilds bump once at the end instead. *)
let shape_changed t = if not t.rebuilding then bump_epoch t

(* ---------------- counted-table helpers ---------------- *)

let bump_count tbl key delta ~on_new =
  match Hashtbl.find_opt tbl key with
  | Some r ->
    r := !r + delta;
    if !r <= 0 then Hashtbl.remove tbl key
  | None ->
    if delta > 0 then begin
      Hashtbl.replace tbl key (ref delta);
      on_new ()
    end

let count_of tbl key = match Hashtbl.find_opt tbl key with Some r -> !r | None -> 0

(* ---------------- degree histograms ---------------- *)

let bucket_of d =
  let rec go i v = if v <= 1 then i else go (i + 1) (v lsr 1) in
  go 0 d

let dstats_for t key =
  match Hashtbl.find_opt t.deg key with
  | Some ds -> ds
  | None ->
    let ds = { d_edges = 0; d_buckets = Array.make n_buckets 0 } in
    Hashtbl.replace t.deg key ds;
    ds

let dstats_empty ds = ds.d_edges = 0 && Array.for_all (fun b -> b = 0) ds.d_buckets

let bump_degree t ~node ~label ~etype ~out delta =
  let nkey = (node, etype, out) in
  let cell = Deg_tbl.find_opt t.node_deg nkey in
  let old_d = match cell with Some r -> !r | None -> 0 in
  let new_d = old_d + delta in
  (if new_d <= 0 then Deg_tbl.remove t.node_deg nkey
   else
     match cell with
     | Some r -> r := new_d
     | None -> Deg_tbl.replace t.node_deg nkey (ref new_d));
  let dkey = (label, etype, out) in
  let ds = dstats_for t dkey in
  if old_d >= 1 then ds.d_buckets.(bucket_of old_d) <- ds.d_buckets.(bucket_of old_d) - 1;
  if new_d >= 1 then ds.d_buckets.(bucket_of new_d) <- ds.d_buckets.(bucket_of new_d) + 1;
  ds.d_edges <- ds.d_edges + delta;
  if dstats_empty ds then Hashtbl.remove t.deg dkey

(* ---------------- property value counts ---------------- *)

let prop_bump t ~label ~key value delta =
  if value <> Value.Null then begin
    let pkey = (label, key) in
    let p =
      match Hashtbl.find_opt t.props pkey with
      | Some p -> p
      | None ->
        let p = { p_counts = Hashtbl.create 64; p_rows = 0; p_sketch = None } in
        Hashtbl.replace t.props pkey p;
        shape_changed t;
        p
    in
    (match Hashtbl.find_opt p.p_counts value with
    | Some r ->
      let n = max 0 (!r + delta) in
      p.p_rows <- p.p_rows + n - !r;
      if n = 0 then Hashtbl.remove p.p_counts value else r := n
    | None ->
      if delta > 0 then begin
        Hashtbl.replace p.p_counts value (ref delta);
        p.p_rows <- p.p_rows + delta
      end);
    if Option.is_some p.p_sketch then p.p_sketch <- None;
    if Hashtbl.length p.p_counts = 0 then Hashtbl.remove t.props pkey
  end

(* ---------------- event application ---------------- *)

let label_of t node =
  match Int_tbl.find_opt t.node_label node with Some l -> l | None -> "?"

let apply t event =
  Obs.Counter.incr m_events;
  match event with
  | Node_added { node; label; props } ->
    Int_tbl.replace t.node_label node label;
    bump_count t.label_tbl label 1 ~on_new:(fun () -> shape_changed t);
    List.iter (fun (key, v) -> prop_bump t ~label ~key v 1) props
  | Node_removed { node; props } ->
    let label = label_of t node in
    Int_tbl.remove t.node_label node;
    bump_count t.label_tbl label (-1) ~on_new:(fun () -> ());
    List.iter (fun (key, v) -> prop_bump t ~label ~key v (-1)) props
  | Edge_added { etype; src; dst } ->
    let src_label = label_of t src and dst_label = label_of t dst in
    bump_count t.etype_tbl etype 1 ~on_new:(fun () -> shape_changed t);
    bump_count t.endpoints (etype, src_label, dst_label) 1 ~on_new:(fun () ->
        shape_changed t);
    bump_degree t ~node:src ~label:src_label ~etype ~out:true 1;
    bump_degree t ~node:dst ~label:dst_label ~etype ~out:false 1
  | Edge_removed { etype; src; dst } ->
    let src_label = label_of t src and dst_label = label_of t dst in
    bump_count t.etype_tbl etype (-1) ~on_new:(fun () -> ());
    bump_count t.endpoints (etype, src_label, dst_label) (-1) ~on_new:(fun () -> ());
    bump_degree t ~node:src ~label:src_label ~etype ~out:true (-1);
    bump_degree t ~node:dst ~label:dst_label ~etype ~out:false (-1)
  | Prop_set { node; key; old_v; new_v } ->
    let label = label_of t node in
    prop_bump t ~label ~key old_v (-1);
    prop_bump t ~label ~key new_v 1

let rebuild t ~nodes ~edges =
  Obs.Counter.incr m_rebuilds;
  Int_tbl.reset t.node_label;
  Hashtbl.reset t.label_tbl;
  Hashtbl.reset t.etype_tbl;
  Deg_tbl.reset t.node_deg;
  Hashtbl.reset t.deg;
  Hashtbl.reset t.props;
  Hashtbl.reset t.endpoints;
  t.rebuilding <- true;
  Fun.protect
    ~finally:(fun () -> t.rebuilding <- false)
    (fun () ->
      Seq.iter (fun (node, label, props) -> apply t (Node_added { node; label; props })) nodes;
      Seq.iter (fun (etype, src, dst) -> apply t (Edge_added { etype; src; dst })) edges);
  bump_epoch t

(* ---------------- estimator accessors ---------------- *)

let total_nodes t = Int_tbl.length t.node_label

let label_count t label = count_of t.label_tbl label

let labels t =
  Hashtbl.fold (fun l _ acc -> l :: acc) t.label_tbl [] |> List.sort compare

let prop_table t ~label ~key = Hashtbl.find_opt t.props (label, key)

let distinct_count t ~label ~key =
  match prop_table t ~label ~key with Some p -> Hashtbl.length p.p_counts | None -> 0

let prop_rows t ~label ~key =
  match prop_table t ~label ~key with Some p -> p.p_rows | None -> 0

(* Count-descending, ties by the smaller value: Topn's order. *)
let top_values p k =
  let top = Mgq_util.Topn.create k in
  Hashtbl.iter (fun v r -> Mgq_util.Topn.add top ~key:v ~score:!r ~value:()) p.p_counts;
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
  let matched =
    Hashtbl.fold (fun key ds acc -> if matches key then (key, ds) :: acc else acc) t.deg []
  in
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
  let add acc l = if List.mem l acc then acc else l :: acc in
  Hashtbl.fold
    (fun (ty, src_l, dst_l) _ acc ->
      if String.equal ty etype then
        match dir with
        | Out -> add acc dst_l
        | In -> add acc src_l
        | Both -> add (add acc src_l) dst_l
      else acc)
    t.endpoints []
  |> List.sort compare

(* ---------------- rendering ---------------- *)

let dir_name out = if out then "out" else "in"

let dump t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "nodes %d" (total_nodes t);
  List.iter (fun l -> line "label %s %d" l (label_count t l)) (labels t);
  Hashtbl.fold (fun ty r acc -> (ty, !r) :: acc) t.etype_tbl []
  |> List.sort compare
  |> List.iter (fun (ty, c) -> line "etype %s %d" ty c);
  Hashtbl.fold (fun key ds acc -> (key, ds) :: acc) t.deg []
  |> List.sort compare
  |> List.iter (fun ((l, ty, out), ds) ->
         let buckets =
           Array.to_list ds.d_buckets
           |> List.mapi (fun i b -> (i, b))
           |> List.filter (fun (_, b) -> b > 0)
           |> List.map (fun (i, b) -> Printf.sprintf "%d:%d" i b)
           |> String.concat ","
         in
         line "degree %s/%s/%s edges=%d buckets=[%s]" l ty (dir_name out) ds.d_edges buckets);
  Hashtbl.fold (fun key p acc -> (key, p) :: acc) t.props []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun ((l, k), p) ->
         let values =
           Hashtbl.fold (fun v r acc -> (v, !r) :: acc) p.p_counts [] |> List.sort compare
         in
         line "prop %s.%s distinct=%d rows=%d" l k (Hashtbl.length p.p_counts) p.p_rows;
         List.iter
           (fun (v, c) -> line "  value %s %s = %d" (Value.type_name v) (Value.to_display v) c)
           values);
  Hashtbl.fold (fun key r acc -> (key, !r) :: acc) t.endpoints []
  |> List.sort compare
  |> List.iter (fun ((ty, s, d), c) -> line "endpoint %s: %s->%s %d" ty s d c);
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
  Hashtbl.fold (fun key ds acc -> (key, ds) :: acc) t.deg []
  |> List.sort compare
  |> List.iter (fun ((l, ty, out), ds) ->
         let s = degree_summary t ~src_label:(Some l) ~etype:(Some ty)
                   ~dir:(if out then Out else In) in
         line "  :%s-[:%s]-%s  %d edges, avg %.2f, degree in [%d, %d]" l ty (dir_name out)
           ds.d_edges s.ds_avg s.ds_min s.ds_max);
  line "";
  line "properties:";
  Hashtbl.fold (fun key _ acc -> key :: acc) t.props []
  |> List.sort compare
  |> List.iter (fun (l, k) ->
         let top =
           mcv t ~k:3 ~label:l ~key:k ()
           |> List.map (fun (v, c) -> Printf.sprintf "%s=%d" (Value.to_display v) c)
           |> String.concat ", "
         in
         line "  :%s(%s)  %d rows, %d distinct; top: %s" l k (prop_rows t ~label:l ~key:k)
           (distinct_count t ~label:l ~key:k) top);
  line "";
  line "endpoint pairs:";
  Hashtbl.fold (fun key r acc -> (key, !r) :: acc) t.endpoints []
  |> List.sort compare
  |> List.iter (fun ((ty, s, d), c) -> line "  (:%s)-[:%s]->(:%s)  %d edges" s ty d c);
  Buffer.contents buf
