(* Tests for the graph-statistics catalog and the cost-based planner
   built on it: incremental maintenance vs ANALYZE rebuild, estimator
   exactness and bounds, statistics-driven start-point choice, the
   epoch-keyed plan cache, and O(1) typed degree on dense nodes. *)

module Db = Mgq_neo.Db
module Catalog = Mgq_catalog.Catalog
module Cypher = Mgq_cypher.Cypher
module Parser = Mgq_cypher.Parser
module Plan = Mgq_cypher.Plan
module Planner = Mgq_cypher.Planner
module Estimate = Mgq_cypher.Estimate
module Value = Mgq_core.Value
module Property = Mgq_core.Property
module Types = Mgq_core.Types
module Rng = Mgq_util.Rng
module Cost_model = Mgq_storage.Cost_model
module Sim_disk = Mgq_storage.Sim_disk
module Obs = Mgq_obs.Obs

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let props l = Property.of_list l
let no_props = Property.empty

(* ------------------------------------------------------------------ *)
(* Incremental maintenance = ANALYZE rebuild                           *)
(* ------------------------------------------------------------------ *)

(* Drive a random committed write sequence — node/edge creation,
   property updates, deletions, and transactions that roll back — and
   require the incrementally-maintained statistics to render exactly
   like a from-scratch rebuild. *)
let random_write_sequence seed n_ops =
  let rng = Rng.create seed in
  let db = Db.create () in
  let labels = [| "user"; "tweet"; "hashtag" |] in
  let etypes = [| "follows"; "posts" |] in
  let nodes = ref [] and edges = ref [] in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let apply_random () =
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      let label = labels.(Rng.int rng (Array.length labels)) in
      let id = Db.create_node db ~label (props [ ("k", Value.Int (Rng.int rng 8)) ]) in
      nodes := id :: !nodes
    | 4 | 5 | 6 -> (
      match !nodes with
      | [] -> ()
      | ns ->
        let etype = etypes.(Rng.int rng (Array.length etypes)) in
        let e = Db.create_edge db ~etype ~src:(pick ns) ~dst:(pick ns) no_props in
        edges := e :: !edges)
    | 7 -> (
      match !nodes with
      | [] -> ()
      | ns -> Db.set_node_property db (pick ns) "k" (Value.Int (Rng.int rng 8)))
    | 8 -> (
      match !edges with
      | [] -> ()
      | e :: rest ->
        Db.delete_edge db e;
        edges := rest)
    | _ -> (
      match List.find_opt (fun n -> Db.degree db n Types.Both = 0) !nodes with
      | Some n ->
        Db.delete_node db n;
        nodes := List.filter (fun x -> x <> n) !nodes
      | None -> ())
  in
  for _ = 1 to n_ops do
    if Rng.int rng 6 = 0 then begin
      (* A rolled-back transaction must leave no trace in the stats. *)
      let saved_nodes = !nodes and saved_edges = !edges in
      let txn = Db.begin_txn db in
      for _ = 1 to 3 do
        apply_random ()
      done;
      Db.rollback_txn db txn;
      nodes := saved_nodes;
      edges := saved_edges
    end
    else apply_random ()
  done;
  db

let prop_incremental_equals_rebuild =
  QCheck.Test.make ~name:"incremental stats = ANALYZE rebuild" ~count:40
    QCheck.(pair small_int (int_range 1 120))
    (fun (seed, n_ops) ->
      let db = random_write_sequence seed n_ops in
      let incremental = Catalog.dump (Db.stats db) in
      Db.analyze db;
      let rebuilt = Catalog.dump (Db.stats db) in
      if incremental <> rebuilt then
        QCheck.Test.fail_reportf "incremental:\n%s\nrebuilt:\n%s" incremental rebuilt;
      true)

(* ------------------------------------------------------------------ *)
(* Estimator properties                                                *)
(* ------------------------------------------------------------------ *)

let plan_of_text db text = Planner.plan db (Parser.parse text)

let ann_of db (plan : Plan.t) pred =
  let anns = Estimate.annotate db plan.Plan.ops in
  let rec find ops anns =
    match (ops, anns) with
    | op :: _, ann :: _ when pred op -> Some ann
    | _ :: ops, _ :: anns -> find ops anns
    | _ -> None
  in
  find plan.Plan.ops anns

(* A bare single-label scan's row estimate is exact: label counts are
   maintained per event, not sampled. *)
let prop_label_scan_exact =
  QCheck.Test.make ~name:"single-label-scan estimate is exact" ~count:40
    QCheck.(pair small_int (int_range 1 120))
    (fun (seed, n_ops) ->
      let db = random_write_sequence seed n_ops in
      let plan = plan_of_text db "MATCH (u:user) RETURN u" in
      let expected =
        Seq.fold_left
          (fun acc id -> if Db.node_label db id = "user" then acc + 1 else acc)
          0 (Db.all_nodes db)
      in
      match ann_of db plan (function Plan.Node_label_scan _ -> true | _ -> false) with
      | Some ann -> int_of_float ann.Estimate.est_rows = expected
      | None -> expected = 0 (* planner may not even scan an absent label *))

(* Expanding every :user node one step along :follows must estimate
   exactly the :follows-from-:user edge count (rows x avg degree), and
   that estimate stays within the histogram's min/max bounds. *)
let prop_expand_within_histogram =
  QCheck.Test.make ~name:"1-step expand estimate = edges, within bounds" ~count:40
    QCheck.(pair small_int (int_range 5 150))
    (fun (seed, n_ops) ->
      let db = random_write_sequence seed n_ops in
      let plan = plan_of_text db "MATCH (u:user)-[:follows]->(v) RETURN v" in
      let stats = Db.stats db in
      let summary =
        Catalog.degree_summary stats ~src_label:(Some "user") ~etype:(Some "follows")
          ~dir:Types.Out
      in
      let users = float_of_int (Catalog.label_count stats "user") in
      match ann_of db plan (function Plan.Expand _ -> true | _ -> false) with
      | Some ann ->
        let est = ann.Estimate.est_rows in
        Float.abs (est -. float_of_int summary.Catalog.ds_edges) < 1e-6
        && est >= (users *. float_of_int summary.Catalog.ds_min) -. 1e-6
        && est <= (users *. float_of_int summary.Catalog.ds_max) +. 1e-6
      | None -> true (* no :follows edges: planner output is degenerate *))

(* ------------------------------------------------------------------ *)
(* Statistics-driven plan choice                                       *)
(* ------------------------------------------------------------------ *)

(* Same query text, two value distributions: with a near-constant
   [grp] the planner must anchor on the selective [uid] index; with a
   unique [grp] and constant [uid] it must flip to the [grp] index. *)
let test_seek_choice_follows_stats () =
  let build ~unique_grp =
    let db = Db.create () in
    let users =
      Array.init 64 (fun i ->
          let grp = if unique_grp then i else 0 in
          let uid = if unique_grp then 0 else i in
          Db.create_node db ~label:"user"
            (props [ ("uid", Value.Int uid); ("grp", Value.Int grp) ]))
    in
    Array.iteri
      (fun i src ->
        ignore
          (Db.create_edge db ~etype:"follows" ~src ~dst:(users.((i + 1) mod 64)) no_props))
      users;
    Db.create_index db ~label:"user" ~property:"uid";
    Db.create_index db ~label:"user" ~property:"grp";
    Db.analyze db;
    db
  in
  let text = "MATCH (a:user {grp: $g})-[:follows]->(b:user {uid: $uid}) RETURN a.uid" in
  let first_line db =
    match String.split_on_char '\n' (Plan.to_string (plan_of_text db text)) with
    | l :: _ -> l
    | [] -> ""
  in
  let uid_selective = first_line (build ~unique_grp:false) in
  let grp_selective = first_line (build ~unique_grp:true) in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool
    (Printf.sprintf "constant grp anchors on uid: %s" uid_selective)
    true
    (contains uid_selective "NodeIndexSeek" && contains uid_selective "(uid)");
  check Alcotest.bool
    (Printf.sprintf "unique grp anchors on grp: %s" grp_selective)
    true
    (contains grp_selective "NodeIndexSeek" && contains grp_selective "(grp)")

(* ------------------------------------------------------------------ *)
(* Three-phrasing convergence (the tentpole claim)                     *)
(* ------------------------------------------------------------------ *)

let follows_graph () =
  let db = Db.create () in
  let users =
    Array.init 40 (fun i -> Db.create_node db ~label:"user" (props [ ("uid", Value.Int i) ]))
  in
  for a = 0 to 39 do
    for b = 0 to 39 do
      if a <> b && (a * 7 + b * 3) mod 5 < 2 then
        ignore (Db.create_edge db ~etype:"follows" ~src:users.(a) ~dst:users.(b) no_props)
    done
  done;
  Db.create_index db ~label:"user" ~property:"uid";
  Db.analyze db;
  db

let test_variant_plans_converge () =
  let db = follows_graph () in
  let canon text = Plan.to_canonical_string (plan_of_text db text) in
  let pa = canon Mgq_queries.Q_cypher.text_q4_variant_a in
  let pb = canon Mgq_queries.Q_cypher.text_q4_variant_b in
  let pc = canon Mgq_queries.Q_cypher.text_q4_variant_c in
  check Alcotest.string "a = b" pa pb;
  check Alcotest.string "b = c" pb pc

let test_variant_results_agree () =
  let db = follows_graph () in
  let session = Cypher.create ~planner:Cypher.Cost_based db in
  let heuristic = Cypher.create ~planner:Cypher.Heuristic db in
  let params = [ ("uid", Value.Int 3); ("n", Value.Int 10) ] in
  List.iter
    (fun text ->
      let cost = Cypher.value_rows (Cypher.run ~params session text) in
      let heur = Cypher.value_rows (Cypher.run ~params heuristic text) in
      check Alcotest.bool "cost-based rows = heuristic rows" true (cost = heur))
    [
      Mgq_queries.Q_cypher.text_q4_variant_a;
      Mgq_queries.Q_cypher.text_q4_variant_b;
      Mgq_queries.Q_cypher.text_q4_variant_c;
    ]

(* ------------------------------------------------------------------ *)
(* Epoch-keyed plan cache                                              *)
(* ------------------------------------------------------------------ *)

(* Satellite claim: creating an index mid-session flips a cached plan
   from label scan to index seek on next use — the cache is keyed on
   the statistics epoch, not only on query text. *)
let test_plan_cache_flips_on_index_creation () =
  let db = Db.create () in
  for i = 0 to 63 do
    ignore (Db.create_node db ~label:"user" (props [ ("grp", Value.Int i) ]))
  done;
  let session = Cypher.create db in
  let text = "MATCH (u:user {grp: $g}) RETURN u" in
  let first_op () = (Cypher.plan_of session text).Plan.ops |> List.hd in
  (match first_op () with
  | Plan.Node_label_scan _ -> ()
  | op -> Alcotest.failf "expected NodeLabelScan before index, got %s" (Plan.op_name op));
  let before = Cypher.compilations session in
  Db.create_index db ~label:"user" ~property:"grp";
  (match first_op () with
  | Plan.Node_index_seek { key; _ } -> check Alcotest.string "seek key" "grp" key
  | op -> Alcotest.failf "expected NodeIndexSeek after index, got %s" (Plan.op_name op));
  check Alcotest.int "stale entry recompiled" (before + 1) (Cypher.compilations session);
  (* And the refreshed entry is cached again: no further recompile. *)
  ignore (first_op ());
  check Alcotest.int "refreshed entry cached" (before + 1) (Cypher.compilations session)

let test_epoch_protocol () =
  let db = Db.create () in
  let e0 = Db.stats_epoch db in
  let n1 = Db.create_node db ~label:"user" no_props in
  let e1 = Db.stats_epoch db in
  check Alcotest.bool "first label sighting bumps" true (e1 > e0);
  let n2 = Db.create_node db ~label:"user" no_props in
  check Alcotest.int "repeat shape does not bump" e1 (Db.stats_epoch db);
  ignore (Db.create_edge db ~etype:"follows" ~src:n1 ~dst:n2 no_props);
  let e2 = Db.stats_epoch db in
  check Alcotest.bool "first edge-type sighting bumps" true (e2 > e1);
  Db.analyze db;
  check Alcotest.bool "ANALYZE bumps" true (Db.stats_epoch db > e2);
  let e3 = Db.stats_epoch db in
  Db.create_index db ~label:"user" ~property:"uid";
  check Alcotest.bool "CREATE INDEX bumps" true (Db.stats_epoch db > e3);
  let e4 = Db.stats_epoch db in
  Db.drop_index db ~label:"user" ~property:"uid";
  check Alcotest.bool "DROP INDEX bumps" true (Db.stats_epoch db > e4)

(* ------------------------------------------------------------------ *)
(* EXPLAIN / EXPLAIN ANALYZE surface                                   *)
(* ------------------------------------------------------------------ *)

let test_explain_does_not_execute () =
  let db = follows_graph () in
  let session = Cypher.create db in
  let r =
    Cypher.run session ~params:[ ("uid", Value.Int 1); ("n", Value.Int 5) ]
      ("EXPLAIN " ^ Mgq_queries.Q_cypher.text_q4_1)
  in
  check Alcotest.(list string) "columns" [ "plan" ] r.Cypher.columns;
  let lines =
    List.filter_map
      (function [ Mgq_cypher.Runtime.Ival (Value.Str s) ] -> Some s | _ -> None)
      r.Cypher.rows
  in
  check Alcotest.bool "has operator rows" true (List.length lines > 3);
  (* Operator name starts each row (header first). *)
  check Alcotest.bool "seek appears at column 0" true
    (List.exists
       (fun l -> String.length l >= 13 && String.sub l 0 13 = "NodeIndexSeek")
       lines)

let test_explain_analyze_q_error () =
  let db = follows_graph () in
  let session = Cypher.create db in
  let entries =
    Cypher.explain_analyze session
      ~params:[ ("uid", Value.Int 3); ("n", Value.Int 10) ]
      Mgq_queries.Q_cypher.text_q4_1
  in
  check Alcotest.bool "one entry per operator" true (List.length entries >= 5);
  let errs =
    List.sort compare (List.map (fun (a : Cypher.analyze_entry) -> a.Cypher.q_error) entries)
  in
  let median = List.nth errs (List.length errs / 2) in
  check Alcotest.bool
    (Printf.sprintf "median q-error %.2f <= 2" median)
    true (median <= 2.0);
  List.iter
    (fun (a : Cypher.analyze_entry) ->
      check Alcotest.bool "q-error >= 1" true (a.Cypher.q_error >= 1.0))
    entries

(* ------------------------------------------------------------------ *)
(* O(1) typed degree on dense nodes                                    *)
(* ------------------------------------------------------------------ *)

(* Satellite claim: with an etype filter, a dense node's degree comes
   from the relationship-group counters, so the db hits charged do not
   scale with the node's actual degree. *)
let test_typed_degree_constant_hits () =
  let hub_hits fan =
    let db = Db.create () in
    let hub = Db.create_node db ~label:"user" no_props in
    for _ = 1 to fan do
      let other = Db.create_node db ~label:"user" no_props in
      ignore (Db.create_edge db ~etype:"follows" ~src:hub ~dst:other no_props);
      ignore (Db.create_edge db ~etype:"posts" ~src:other ~dst:hub no_props)
    done;
    Alcotest.(check bool) "hub is dense" true (Db.is_dense_node db hub);
    let cost = Sim_disk.cost (Db.disk db) in
    let before = Cost_model.snapshot cost in
    let d = Db.degree db hub ~etype:"follows" Types.Out in
    let delta = Cost_model.sub_counters (Cost_model.snapshot cost) before in
    check Alcotest.int "degree value" fan d;
    delta.Cost_model.db_hits
  in
  let h100 = hub_hits 100 and h400 = hub_hits 400 and h1600 = hub_hits 1600 in
  check Alcotest.int "hits at fan 400 = hits at fan 100" h100 h400;
  check Alcotest.int "hits at fan 1600 = hits at fan 100" h100 h1600

(* ------------------------------------------------------------------ *)
(* Property sketch: running totals and the memoised MCV list           *)
(* ------------------------------------------------------------------ *)

(* The property statistics as a fold-and-sort over exact value counts:
   the catalog's running totals and memoised sketch must agree with it
   after any event sequence. *)
module Ref_props = struct
  type t = {
    labels : (int, string) Hashtbl.t;
    counts : (string * string, (Value.t, int) Hashtbl.t) Hashtbl.t;
  }

  let create () = { labels = Hashtbl.create 16; counts = Hashtbl.create 16 }

  let table r ~label ~key =
    match Hashtbl.find_opt r.counts (label, key) with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace r.counts (label, key) tbl;
      tbl

  let bump r ~label ~key v delta =
    if v <> Value.Null then begin
      let tbl = table r ~label ~key in
      match Hashtbl.find_opt tbl v with
      | Some c -> if c + delta <= 0 then Hashtbl.remove tbl v else Hashtbl.replace tbl v (c + delta)
      | None -> if delta > 0 then Hashtbl.replace tbl v delta
    end

  let label_of r node = Option.value ~default:"?" (Hashtbl.find_opt r.labels node)

  let apply r (event : Catalog.event) =
    match event with
    | Catalog.Node_added { node; label; props } ->
      Hashtbl.replace r.labels node label;
      List.iter (fun (key, v) -> bump r ~label ~key v 1) props
    | Catalog.Node_removed { node; props } ->
      let label = label_of r node in
      Hashtbl.remove r.labels node;
      List.iter (fun (key, v) -> bump r ~label ~key v (-1)) props
    | Catalog.Prop_set { node; key; old_v; new_v } ->
      let label = label_of r node in
      bump r ~label ~key old_v (-1);
      bump r ~label ~key new_v 1
    | Catalog.Edge_added _ | Catalog.Edge_removed _ -> ()

  let values r ~label ~key = Hashtbl.fold (fun v c acc -> (v, c) :: acc) (table r ~label ~key) []
  let rows r ~label ~key = List.fold_left (fun acc (_, c) -> acc + c) 0 (values r ~label ~key)
  let distinct r ~label ~key = List.length (values r ~label ~key)

  let mcv r ~k ~label ~key =
    values r ~label ~key
    |> List.sort (fun (va, ca) (vb, cb) -> if ca <> cb then compare cb ca else compare va vb)
    |> List.filteri (fun i _ -> i < k)

  let eq_rows r ~label ~key value =
    let n = rows r ~label ~key and d = distinct r ~label ~key in
    if d = 0 then 0.
    else
      match value with
      | None -> float_of_int n /. float_of_int d
      | Some v -> (
        let sketch = mcv r ~k:10 ~label ~key in
        match List.assoc_opt v sketch with
        | Some c -> float_of_int c
        | None ->
          let mass = List.fold_left (fun acc (_, c) -> acc + c) 0 sketch in
          let tail = d - List.length sketch in
          if tail <= 0 then 0. else float_of_int (n - mass) /. float_of_int tail)
end

type sketch_op = Event of Catalog.event | Rebuild

(* [Float 1.] must stay a key apart from [Int 1], and every [Float nan]
   must be one key: the reference's generic table compares keys with
   [compare a b = 0]. *)
let sketch_value = function
  | 0 -> Value.Null
  | i when i <= 9 -> Value.Int i
  | 13 -> Value.Float 1.
  | 14 -> Value.Float nan
  | 15 -> Value.Bool true
  | i -> Value.Str (String.make 1 (Char.chr (Char.code 'a' + i - 10)))

(* Small node, label and value domains, so values repeat, counts tie
   and removals often name values the node never had. *)
let gen_sketch_op =
  let open QCheck.Gen in
  let node = int_bound 11 and value = map sketch_value (int_bound 15) in
  let key = oneofl [ "k"; "j" ] in
  frequency
    [
      ( 4,
        map3
          (fun node label (v, w) ->
            Event (Catalog.Node_added { node; label; props = [ ("k", v); ("j", w) ] }))
          node (oneofl [ "a"; "b" ]) (pair value value) );
      (2, map2 (fun node v -> Event (Catalog.Node_removed { node; props = [ ("k", v) ] })) node value);
      ( 4,
        map3
          (fun node key (old_v, new_v) -> Event (Catalog.Prop_set { node; key; old_v; new_v }))
          node key (pair value value) );
      (1, return Rebuild);
    ]

let print_sketch_op = function
  | Rebuild -> "rebuild"
  | Event (Catalog.Node_added { node; label; props }) ->
    Printf.sprintf "add %d:%s %s" node label
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ Value.to_display v) props))
  | Event (Catalog.Node_removed { node; props }) ->
    Printf.sprintf "remove %d %s" node
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ Value.to_display v) props))
  | Event (Catalog.Prop_set { node; key; old_v; new_v }) ->
    Printf.sprintf "set %d.%s %s->%s" node key (Value.to_display old_v) (Value.to_display new_v)
  | Event _ -> "edge"

(* Replays [ops] into a catalog and the reference; a rebuild replaces
   both from the live nodes as a model tracks them. *)
let sketch_mismatch ops =
  let cat = Catalog.create () and r = ref (Ref_props.create ()) in
  let live = Hashtbl.create 16 in
  let track = function
    | Catalog.Node_added { node; label; props } -> Hashtbl.replace live node (label, props)
    | Catalog.Node_removed { node; _ } -> Hashtbl.remove live node
    | Catalog.Prop_set { node; key; new_v; _ } -> (
      match Hashtbl.find_opt live node with
      | Some (label, props) ->
        Hashtbl.replace live node (label, (key, new_v) :: List.remove_assoc key props)
      | None -> ())
    | Catalog.Edge_added _ | Catalog.Edge_removed _ -> ()
  in
  let check_all () =
    List.find_map
      (fun (label, key) ->
        let expect name a b =
          if compare a b = 0 then None else Some (Printf.sprintf "%s %s.%s" name label key)
        in
        let top = match Ref_props.mcv !r ~k:1 ~label ~key with (v, _) :: _ -> Some v | [] -> None in
        List.find_map Fun.id
          [
            expect "prop_rows" (Ref_props.rows !r ~label ~key) (Catalog.prop_rows cat ~label ~key);
            expect "distinct_count" (Ref_props.distinct !r ~label ~key)
              (Catalog.distinct_count cat ~label ~key);
            expect "mcv k=3" (Ref_props.mcv !r ~k:3 ~label ~key) (Catalog.mcv cat ~k:3 ~label ~key ());
            expect "mcv k=10" (Ref_props.mcv !r ~k:10 ~label ~key)
              (Catalog.mcv cat ~k:10 ~label ~key ());
            expect "eq_rows known" (Ref_props.eq_rows !r ~label ~key top)
              (Catalog.eq_rows cat ~label ~key top);
            expect "eq_rows unknown"
              (Ref_props.eq_rows !r ~label ~key (Some (Value.Int 99)))
              (Catalog.eq_rows cat ~label ~key (Some (Value.Int 99)));
            expect "eq_rows None" (Ref_props.eq_rows !r ~label ~key None)
              (Catalog.eq_rows cat ~label ~key None);
          ])
      [ ("a", "k"); ("a", "j"); ("b", "k"); ("b", "j"); ("?", "k"); ("?", "j") ]
  in
  List.find_map
    (fun op ->
      (match op with
      | Event e ->
        Catalog.apply cat e;
        Ref_props.apply !r e;
        track e
      | Rebuild ->
        let nodes =
          Hashtbl.fold (fun node (label, props) acc -> (node, label, props) :: acc) live []
          |> List.sort compare
        in
        Catalog.rebuild cat ~nodes:(List.to_seq nodes) ~edges:Seq.empty;
        r := Ref_props.create ();
        List.iter
          (fun (node, label, props) -> Ref_props.apply !r (Catalog.Node_added { node; label; props }))
          nodes);
      Option.map (fun what -> what ^ " after " ^ print_sketch_op op) (check_all ()))
    ops

let prop_sketch_matches_reference =
  QCheck.Test.make ~name:"running totals and MCV sketch = fold-and-sort" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_sketch_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 60) gen_sketch_op))
    (fun ops ->
      match sketch_mismatch ops with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "%s" msg)

let test_sketch_memoised () =
  let cat = Catalog.create () in
  for node = 0 to 20 do
    Catalog.apply cat
      (Catalog.Node_added { node; label = "user"; props = [ ("uid", Value.Int (node mod 7)) ] })
  done;
  let first = Catalog.mcv cat ~label:"user" ~key:"uid" () in
  check Alcotest.bool "unchanged catalog: same list" true
    (first == Catalog.mcv cat ~label:"user" ~key:"uid" ());
  Catalog.apply cat
    (Catalog.Prop_set { node = 0; key = "uid"; old_v = Value.Int 0; new_v = Value.Int 1 });
  let after = Catalog.mcv cat ~label:"user" ~key:"uid" () in
  check Alcotest.bool "Prop_set invalidates" false (first == after);
  check Alcotest.int "new top count" 4 (snd (List.hd after))

(* ------------------------------------------------------------------ *)
(* Typed degrees against a fold-and-bucket model                       *)
(* ------------------------------------------------------------------ *)

(* [rebuild] replays its scan through [apply], so incremental = rebuilt
   cannot catch a fault the two share. This model recomputes the label,
   degree and endpoint statistics from the live nodes and the live edge
   multiset alone. Node ids are sparse, some past 10,000, so the
   catalog's per-node arrays grow mid-run; [ghosts] are never added, so
   their edges count under label "?". As in a [Db], a node is removed
   only once it has no edges and is added only while absent. *)
type degree_op =
  | Add_node of int * string
  | Remove_node of int
  | Add_edge of string * int * int
  | Remove_edge of int  (** the i-th live edge, modulo their number *)

let real_ids = [| 0; 3; 7; 64; 1_000; 10_007; 12_345; 40_000 |]
let ghosts = [| 5; 20_001 |]
let degree_labels = [ "user"; "tweet"; "?" ]
let degree_etypes = [ "follows"; "posts" ]

let gen_degree_op =
  let open QCheck.Gen in
  let real = oneofa real_ids in
  let endpoint = frequency [ (4, real); (1, oneofa ghosts) ] in
  frequency
    [
      (3, map2 (fun n l -> Add_node (n, l)) real (oneofl [ "user"; "tweet" ]));
      (1, map (fun n -> Remove_node n) real);
      (6, map3 (fun ty s d -> Add_edge (ty, s, d)) (oneofl degree_etypes) endpoint endpoint);
      (3, map (fun i -> Remove_edge i) nat);
    ]

let print_degree_op = function
  | Add_node (n, l) -> Printf.sprintf "add %d:%s" n l
  | Remove_node n -> Printf.sprintf "remove %d" n
  | Add_edge (ty, s, d) -> Printf.sprintf "%d-[%s]->%d" s ty d
  | Remove_edge i -> Printf.sprintf "unlink #%d" i

module Ref_degrees = struct
  type t = { labels : (int, string) Hashtbl.t; mutable edges : (string * int * int) list }

  let label_of r n = Option.value ~default:"?" (Hashtbl.find_opt r.labels n)

  (* The largest i with 2^i <= d. *)
  let bucket d =
    let rec go i = if 1 lsl (i + 1) > d then i else go (i + 1) in
    go 0

  (* (label, etype, out) -> (edges, bucket of each node with an edge). *)
  let histograms r =
    let degree = Hashtbl.create 16 in
    List.iter
      (fun (ty, s, d) ->
        List.iter
          (fun (out, n) ->
            let k = (label_of r n, ty, out, n) in
            Hashtbl.replace degree k (1 + Option.value ~default:0 (Hashtbl.find_opt degree k)))
          [ (true, s); (false, d) ])
      r.edges;
    let hists = Hashtbl.create 16 in
    Hashtbl.iter
      (fun (l, ty, out, _) d ->
        let edges, buckets = Option.value ~default:(0, []) (Hashtbl.find_opt hists (l, ty, out)) in
        Hashtbl.replace hists (l, ty, out) (edges + d, bucket d :: buckets))
      degree;
    hists

  let label_count r l = Hashtbl.fold (fun _ l' acc -> if l' = l then acc + 1 else acc) r.labels 0

  let summary r hists ~src_label ~etype ~dir : Catalog.degree_summary =
    let outs = match dir with Types.Out -> [ true ] | In -> [ false ] | Both -> [ true; false ] in
    let matched =
      Hashtbl.fold
        (fun (l, ty, out) h acc ->
          if
            Option.fold ~none:true ~some:(( = ) l) src_label
            && Option.fold ~none:true ~some:(( = ) ty) etype
            && List.mem out outs
          then h :: acc
          else acc)
        hists []
    in
    let sources =
      match src_label with Some l -> label_count r l | None -> Hashtbl.length r.labels
    in
    let edges = List.fold_left (fun acc (e, _) -> acc + e) 0 matched in
    let top buckets = List.fold_left max 0 buckets in
    let ds_max = List.fold_left (fun acc (_, bs) -> acc + (1 lsl (top bs + 1)) - 1) 0 matched in
    let ds_min =
      match (matched, src_label) with
      | [ (_, bs) ], Some _ when List.length bs >= sources -> 1 lsl List.fold_left min max_int bs
      | _ -> 0
    in
    {
      ds_edges = edges;
      ds_sources = sources;
      ds_min;
      ds_max;
      ds_avg = float_of_int edges /. float_of_int (max 1 sources);
    }

  let endpoint_labels r ~etype ~dir =
    List.concat_map
      (fun (ty, s, d) ->
        if ty <> etype then []
        else
          match dir with
          | Types.Out -> [ label_of r d ]
          | In -> [ label_of r s ]
          | Both -> [ label_of r s; label_of r d ])
      r.edges
    |> List.sort_uniq compare
end

(* Replays the valid ops into a catalog and the model; the first
   statistic they disagree on, if any. *)
let degree_mismatch ops =
  let cat = Catalog.create () in
  let r = { Ref_degrees.labels = Hashtbl.create 16; edges = [] } in
  let has_edges n = List.exists (fun (_, s, d) -> s = n || d = n) r.edges in
  let step = function
    | Add_node (node, label) when not (Hashtbl.mem r.labels node) ->
      Hashtbl.replace r.labels node label;
      Some (Catalog.Node_added { node; label; props = [] })
    | Remove_node node when Hashtbl.mem r.labels node && not (has_edges node) ->
      Hashtbl.remove r.labels node;
      Some (Catalog.Node_removed { node; props = [] })
    | Add_edge (etype, src, dst)
      when (Hashtbl.mem r.labels src || Array.mem src ghosts)
           && (Hashtbl.mem r.labels dst || Array.mem dst ghosts) ->
      r.edges <- (etype, src, dst) :: r.edges;
      Some (Catalog.Edge_added { etype; src; dst })
    | Remove_edge i when r.edges <> [] ->
      let etype, src, dst = List.nth r.edges (i mod List.length r.edges) in
      r.edges <- List.filteri (fun j _ -> j <> i mod List.length r.edges) r.edges;
      Some (Catalog.Edge_removed { etype; src; dst })
    | _ -> None
  in
  let check_all () =
    let hists = Ref_degrees.histograms r in
    let labels = None :: List.map Option.some degree_labels in
    let etypes = None :: List.map Option.some degree_etypes in
    let expect what a b = if a = b then None else Some what in
    let name = Option.value ~default:"*" in
    List.find_map Fun.id
      ([
         expect "total_nodes" (Hashtbl.length r.labels) (Catalog.total_nodes cat);
       ]
      @ List.map
          (fun l ->
            expect ("label_count " ^ l) (Ref_degrees.label_count r l) (Catalog.label_count cat l))
          degree_labels
      @ List.concat_map
          (fun src_label ->
            List.concat_map
              (fun etype ->
                List.map
                  (fun (dir, dname) ->
                    expect
                      (Printf.sprintf "degree_summary %s/%s/%s" (name src_label) (name etype) dname)
                      (Ref_degrees.summary r hists ~src_label ~etype ~dir)
                      (Catalog.degree_summary cat ~src_label ~etype ~dir))
                  [ (Types.Out, "out"); (Types.In, "in"); (Types.Both, "both") ])
              etypes)
          labels
      @ List.concat_map
          (fun etype ->
            List.map
              (fun dir ->
                expect ("endpoint_labels " ^ etype)
                  (Ref_degrees.endpoint_labels r ~etype ~dir)
                  (Catalog.endpoint_labels cat ~etype ~dir))
              [ Types.Out; Types.In; Types.Both ])
          degree_etypes)
  in
  List.find_map
    (fun op ->
      match step op with
      | None -> None
      | Some e ->
        Catalog.apply cat e;
        Option.map (fun what -> what ^ " after " ^ print_degree_op op) (check_all ()))
    ops

let prop_degrees_match_model =
  QCheck.Test.make ~name:"label, degree and endpoint stats = fold over live edges" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_degree_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 80) gen_degree_op))
    (fun ops ->
      match degree_mismatch ops with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "%s" msg)

(* ------------------------------------------------------------------ *)
(* A clone's statistics share nothing with the original's              *)
(* ------------------------------------------------------------------ *)

(* Writes on each side — new nodes whose ids run past every array's old
   length, edges and property changes on nodes both sides share, an
   edge deletion — must leave the other side's dump unchanged. *)
let test_clone_stats_independent () =
  let db = Db.create () in
  let users =
    Array.init 8 (fun i -> Db.create_node db ~label:"user" (props [ ("uid", Value.Int i) ]))
  in
  let first_edge =
    Db.create_edge db ~etype:"follows" ~src:users.(0) ~dst:users.(1) no_props
  in
  let dump d = Catalog.dump (Db.stats d) in
  let write d ~tag =
    for i = 0 to 599 do
      let t = Db.create_node d ~label:tag (props [ ("tid", Value.Int i) ]) in
      ignore (Db.create_edge d ~etype:"posts" ~src:users.(i mod 8) ~dst:t no_props);
      ignore (Db.create_edge d ~etype:tag ~src:users.(i mod 8) ~dst:users.((i + 3) mod 8) no_props)
    done;
    Db.set_node_property d users.(2) "uid" (Value.Str tag);
    Db.delete_edge d first_edge
  in
  let clone = Db.clone db in
  let original = dump db in
  check Alcotest.string "clone starts equal" original (dump clone);
  write clone ~tag:"tweet";
  check Alcotest.string "original unchanged by the clone's writes" original (dump db);
  let cloned = dump clone in
  write db ~tag:"reply";
  check Alcotest.string "clone unchanged by the original's writes" cloned (dump clone);
  check Alcotest.bool "both sides changed" true (original <> cloned && original <> dump db)

(* ------------------------------------------------------------------ *)
(* The catalog step is a span of its own                               *)
(* ------------------------------------------------------------------ *)

let test_commit_spans () =
  let db = Db.create () in
  let a = Db.create_node db ~label:"user" no_props in
  Obs.Trace.enable ();
  Obs.Trace.with_span "test.write" (fun () ->
      Db.with_tx db (fun () ->
          let b = Db.create_node db ~label:"user" no_props in
          ignore (Db.create_edge db ~etype:"follows" ~src:a ~dst:b no_props)));
  Obs.Trace.disable ();
  let one name =
    match Obs.Trace.find name with
    | [ s ] -> s
    | ss -> Alcotest.failf "%d spans named %s" (List.length ss) name
  in
  let parent = Some (one "test.write").Obs.Trace.id in
  check (Alcotest.option Alcotest.int) "WAL append under the write" parent
    (one "db.commit.wal_append").Obs.Trace.parent;
  check (Alcotest.option Alcotest.int) "catalog apply under the write" parent
    (one "db.commit.catalog").Obs.Trace.parent

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "incremental",
      [
        qtest prop_incremental_equals_rebuild;
        qtest prop_degrees_match_model;
        Alcotest.test_case "epoch protocol" `Quick test_epoch_protocol;
        Alcotest.test_case "clone stats independent" `Quick test_clone_stats_independent;
      ] );
    ( "estimator",
      [
        qtest prop_label_scan_exact;
        qtest prop_expand_within_histogram;
        Alcotest.test_case "explain analyze q-error" `Quick test_explain_analyze_q_error;
      ] );
    ( "planner",
      [
        Alcotest.test_case "seek choice follows stats" `Quick test_seek_choice_follows_stats;
        Alcotest.test_case "variant plans converge" `Quick test_variant_plans_converge;
        Alcotest.test_case "variant results agree" `Quick test_variant_results_agree;
      ] );
    ( "plan-cache",
      [
        Alcotest.test_case "flips on mid-session index" `Quick
          test_plan_cache_flips_on_index_creation;
      ] );
    ( "explain",
      [ Alcotest.test_case "EXPLAIN does not execute" `Quick test_explain_does_not_execute ]
    );
    ( "degree",
      [
        Alcotest.test_case "typed degree O(1) on dense nodes" `Quick
          test_typed_degree_constant_hits;
      ] );
    ("trace", [ Alcotest.test_case "commit spans" `Quick test_commit_spans ]);
    ( "sketch",
      [
        qtest prop_sketch_matches_reference;
        Alcotest.test_case "MCV list memoised until a write" `Quick test_sketch_memoised;
      ] );
  ]

let () = Alcotest.run "mgq_catalog" suite
