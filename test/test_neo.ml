(* Tests for the Neo4j-analog engine: record stores, relationship
   chains, properties, label scans, indexes, transactions, the
   traversal framework and shortest paths. *)

module Db = Mgq_neo.Db
module Traversal = Mgq_neo.Traversal
module Algo = Mgq_neo.Algo
module Value = Mgq_core.Value
module Property = Mgq_core.Property
module Types = Mgq_core.Types
module Cost_model = Mgq_storage.Cost_model
module Sim_disk = Mgq_storage.Sim_disk
module Rng = Mgq_util.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let props l = Property.of_list l
let no_props = Property.empty

let value_testable =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Value.to_display v))
    (fun a b -> a = b)

(* A small fixed graph used by several tests:
     u0 -follows-> u1 -follows-> u2
     u0 -follows-> u2
     u0 -posts->   t0
*)
let small_graph () =
  let db = Db.create () in
  let u i = Db.create_node db ~label:"user" (props [ ("uid", Value.Int i) ]) in
  let u0 = u 0 and u1 = u 1 and u2 = u 2 in
  let t0 = Db.create_node db ~label:"tweet" (props [ ("text", Value.Str "hi") ]) in
  let f a b = ignore (Db.create_edge db ~etype:"follows" ~src:a ~dst:b no_props) in
  f u0 u1;
  f u1 u2;
  f u0 u2;
  ignore (Db.create_edge db ~etype:"posts" ~src:u0 ~dst:t0 no_props);
  (db, u0, u1, u2, t0)

(* ------------------------------------------------------------------ *)
(* Nodes, edges, properties                                            *)
(* ------------------------------------------------------------------ *)

let test_create_and_read_node () =
  let db = Db.create () in
  let n =
    Db.create_node db ~label:"user"
      (props [ ("uid", Value.Int 531); ("name", Value.Str "ada") ])
  in
  check Alcotest.bool "exists" true (Db.node_exists db n);
  check Alcotest.string "label" "user" (Db.node_label db n);
  check value_testable "uid" (Value.Int 531) (Db.node_property db n "uid");
  check value_testable "name" (Value.Str "ada") (Db.node_property db n "name");
  check value_testable "missing is null" Value.Null (Db.node_property db n "nope");
  check Alcotest.int "node count" 1 (Db.node_count db)

let test_create_and_read_edge () =
  let db = Db.create () in
  let a = Db.create_node db ~label:"user" no_props in
  let b = Db.create_node db ~label:"user" no_props in
  let e =
    Db.create_edge db ~etype:"follows" ~src:a ~dst:b
      (props [ ("since", Value.Int 2014) ])
  in
  let edge = Db.edge db e in
  check Alcotest.int "src" a edge.Types.src;
  check Alcotest.int "dst" b edge.Types.dst;
  check Alcotest.string "type" "follows" edge.Types.etype;
  check value_testable "edge prop" (Value.Int 2014) (Db.edge_property db e "since");
  check Alcotest.int "edge count" 1 (Db.edge_count db)

let test_property_update () =
  let db = Db.create () in
  let n = Db.create_node db ~label:"user" (props [ ("uid", Value.Int 1) ]) in
  Db.set_node_property db n "uid" (Value.Int 2);
  check value_testable "updated" (Value.Int 2) (Db.node_property db n "uid");
  Db.set_node_property db n "bio" (Value.Str "hello");
  check value_testable "added" (Value.Str "hello") (Db.node_property db n "bio");
  Db.set_node_property db n "bio" Value.Null;
  check value_testable "removed via null" Value.Null (Db.node_property db n "bio")

let test_property_types_roundtrip () =
  let db = Db.create () in
  let n =
    Db.create_node db ~label:"x"
      (props
         [
           ("b", Value.Bool true);
           ("i", Value.Int (-42));
           ("f", Value.Float 3.25);
           ("s", Value.Str "tweet text with spaces");
         ])
  in
  check value_testable "bool" (Value.Bool true) (Db.node_property db n "b");
  check value_testable "int" (Value.Int (-42)) (Db.node_property db n "i");
  check value_testable "float" (Value.Float 3.25) (Db.node_property db n "f");
  check value_testable "string" (Value.Str "tweet text with spaces") (Db.node_property db n "s")

let test_node_properties_map () =
  let db = Db.create () in
  let n =
    Db.create_node db ~label:"x" (props [ ("a", Value.Int 1); ("b", Value.Int 2) ])
  in
  let m = Db.node_properties db n in
  check Alcotest.int "cardinal" 2 (Property.cardinal m);
  check value_testable "a" (Value.Int 1) (Property.get m "a")

let test_missing_node_raises () =
  let db = Db.create () in
  check Alcotest.bool "raises" true
    (try
       ignore (Db.node_label db 99);
       false
     with Types.Node_not_found 99 -> true)

(* ------------------------------------------------------------------ *)
(* Chains: degrees, edges_of, neighbors                                *)
(* ------------------------------------------------------------------ *)

let test_degrees () =
  let db, u0, u1, u2, _ = small_graph () in
  check Alcotest.int "u0 out" 3 (Db.out_degree db u0);
  check Alcotest.int "u0 in" 0 (Db.in_degree db u0);
  check Alcotest.int "u1 out" 1 (Db.out_degree db u1);
  check Alcotest.int "u1 in" 1 (Db.in_degree db u1);
  check Alcotest.int "u2 in" 2 (Db.in_degree db u2);
  check Alcotest.int "u0 follows only" 2 (Db.degree db u0 ~etype:"follows" Types.Out);
  check Alcotest.int "u1 both" 2 (Db.degree db u1 Types.Both)

let test_neighbors_directions () =
  let db, u0, u1, u2, t0 = small_graph () in
  let sorted seq = List.sort compare (List.of_seq seq) in
  check Alcotest.(list int) "u0 out neighbors" [ u1; u2; t0 ]
    (sorted (Db.neighbors db u0 Types.Out));
  check Alcotest.(list int) "u0 out follows" [ u1; u2 ]
    (sorted (Db.neighbors db u0 ~etype:"follows" Types.Out));
  check Alcotest.(list int) "u2 in" [ u0; u1 ] (sorted (Db.neighbors db u2 Types.In));
  check Alcotest.(list int) "u1 both" [ u0; u2 ] (sorted (Db.neighbors db u1 Types.Both));
  check Alcotest.(list int) "unknown type" []
    (sorted (Db.neighbors db u0 ~etype:"retweets" Types.Out))

let test_self_loop_reported_once () =
  let db = Db.create () in
  let n = Db.create_node db ~label:"user" no_props in
  ignore (Db.create_edge db ~etype:"mentions" ~src:n ~dst:n no_props);
  check Alcotest.int "both lists loop once" 1 (Seq.length (Db.edges_of db n Types.Both));
  check Alcotest.int "out sees it" 1 (Seq.length (Db.edges_of db n Types.Out));
  check Alcotest.int "in sees it" 1 (Seq.length (Db.edges_of db n Types.In))

let test_parallel_edges_multigraph () =
  let db = Db.create () in
  let a = Db.create_node db ~label:"user" no_props in
  let b = Db.create_node db ~label:"user" no_props in
  ignore (Db.create_edge db ~etype:"mentions" ~src:a ~dst:b no_props);
  ignore (Db.create_edge db ~etype:"mentions" ~src:a ~dst:b no_props);
  check Alcotest.int "two parallel edges" 2
    (Seq.length (Db.edges_of db a ~etype:"mentions" Types.Out))

let test_delete_edge () =
  let db, u0, u1, _, _ = small_graph () in
  let e = List.of_seq (Db.edges_of db u0 ~etype:"follows" Types.Out) in
  let target = List.find (fun (e : Types.edge) -> e.dst = u1) e in
  Db.delete_edge db target.Types.id;
  check Alcotest.int "u0 out degree drops" 2 (Db.out_degree db u0);
  check Alcotest.int "u1 in degree drops" 0 (Db.in_degree db u1);
  check Alcotest.bool "edge gone" false (Db.edge_exists db target.Types.id);
  check Alcotest.int "edge count" 3 (Db.edge_count db)

let test_delete_node_requires_isolation () =
  let db, u0, _, _, _ = small_graph () in
  check Alcotest.bool "refuses connected node" true
    (try
       Db.delete_node db u0;
       false
     with Failure _ -> true);
  let lone = Db.create_node db ~label:"user" no_props in
  Db.delete_node db lone;
  check Alcotest.bool "lone node removed" false (Db.node_exists db lone)

(* ------------------------------------------------------------------ *)
(* Scans and counts                                                    *)
(* ------------------------------------------------------------------ *)

let test_label_scan () =
  let db, u0, u1, u2, t0 = small_graph () in
  let users = List.sort compare (List.of_seq (Db.nodes_with_label db "user")) in
  check Alcotest.(list int) "users" [ u0; u1; u2 ] users;
  check Alcotest.(list int) "tweets" [ t0 ] (List.of_seq (Db.nodes_with_label db "tweet"));
  check Alcotest.(list int) "unknown label" []
    (List.of_seq (Db.nodes_with_label db "nope"));
  check Alcotest.int "label count" 3 (Db.label_count db "user");
  check Alcotest.int "type count" 3 (Db.edge_type_count db "follows");
  check Alcotest.int "all nodes" 4 (Seq.length (Db.all_nodes db))

(* ------------------------------------------------------------------ *)
(* Indexes                                                             *)
(* ------------------------------------------------------------------ *)

let test_index_lookup () =
  let db, u0, _, _, _ = small_graph () in
  Db.create_index db ~label:"user" ~property:"uid";
  check Alcotest.bool "has index" true (Db.has_index db ~label:"user" ~property:"uid");
  check Alcotest.(list int) "seek uid=0" [ u0 ]
    (Db.index_lookup db ~label:"user" ~property:"uid" (Value.Int 0));
  check Alcotest.(list int) "seek missing" []
    (Db.index_lookup db ~label:"user" ~property:"uid" (Value.Int 777))

let test_index_tracks_updates () =
  let db = Db.create () in
  Db.create_index db ~label:"user" ~property:"uid";
  let n = Db.create_node db ~label:"user" (props [ ("uid", Value.Int 5) ]) in
  check Alcotest.(list int) "new node indexed" [ n ]
    (Db.index_lookup db ~label:"user" ~property:"uid" (Value.Int 5));
  Db.set_node_property db n "uid" (Value.Int 6);
  check Alcotest.(list int) "old key cleared" []
    (Db.index_lookup db ~label:"user" ~property:"uid" (Value.Int 5));
  check Alcotest.(list int) "new key found" [ n ]
    (Db.index_lookup db ~label:"user" ~property:"uid" (Value.Int 6))

let test_index_missing_raises () =
  let db, _, _, _, _ = small_graph () in
  check Alcotest.bool "schema error" true
    (try
       ignore (Db.index_lookup db ~label:"user" ~property:"uid" (Value.Int 0));
       false
     with Types.Schema_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

let test_tx_commit () =
  let db = Db.create () in
  let txn = Db.begin_txn db in
  let n = Db.create_node db ~label:"user" (props [ ("uid", Value.Int 1) ]) in
  Result.get_ok (Db.commit_txn db txn);
  check Alcotest.bool "persisted" true (Db.node_exists db n)

let test_tx_rollback_create_node () =
  let db = Db.create () in
  let txn = Db.begin_txn db in
  let n = Db.create_node db ~label:"user" (props [ ("uid", Value.Int 1) ]) in
  Db.rollback_txn db txn;
  check Alcotest.bool "node gone" false (Db.node_exists db n);
  check Alcotest.int "count restored" 0 (Db.node_count db);
  check Alcotest.int "label scan restored" 0 (Db.label_count db "user")

let test_tx_rollback_create_edge () =
  let db = Db.create () in
  let a = Db.create_node db ~label:"user" no_props in
  let b = Db.create_node db ~label:"user" no_props in
  let txn = Db.begin_txn db in
  let e = Db.create_edge db ~etype:"follows" ~src:a ~dst:b no_props in
  Db.rollback_txn db txn;
  check Alcotest.bool "edge gone" false (Db.edge_exists db e);
  check Alcotest.int "degree restored" 0 (Db.out_degree db a);
  check Alcotest.int "edge count" 0 (Db.edge_count db);
  check Alcotest.int "neighbors empty" 0 (Seq.length (Db.neighbors db a Types.Out))

let test_tx_rollback_set_property () =
  let db = Db.create () in
  let n = Db.create_node db ~label:"user" (props [ ("uid", Value.Int 1) ]) in
  let txn = Db.begin_txn db in
  Db.set_node_property db n "uid" (Value.Int 99);
  Db.set_node_property db n "bio" (Value.Str "x");
  Db.rollback_txn db txn;
  check value_testable "uid restored" (Value.Int 1) (Db.node_property db n "uid");
  check value_testable "bio gone" Value.Null (Db.node_property db n "bio")

let test_tx_rollback_delete_edge () =
  let db, u0, u1, _, _ = small_graph () in
  let edges = List.of_seq (Db.edges_of db u0 ~etype:"follows" Types.Out) in
  let target = List.find (fun (e : Types.edge) -> e.dst = u1) edges in
  let txn = Db.begin_txn db in
  Db.delete_edge db target.Types.id;
  Db.rollback_txn db txn;
  check Alcotest.bool "edge restored" true (Db.edge_exists db target.Types.id);
  check Alcotest.int "degree restored" 3 (Db.out_degree db u0);
  let neighbors = List.sort compare (List.of_seq (Db.neighbors db u0 ~etype:"follows" Types.Out)) in
  check Alcotest.bool "u1 reachable again" true (List.mem u1 neighbors)

let test_tx_rollback_index_sync () =
  let db = Db.create () in
  Db.create_index db ~label:"user" ~property:"uid";
  let n = Db.create_node db ~label:"user" (props [ ("uid", Value.Int 7) ]) in
  let txn = Db.begin_txn db in
  Db.set_node_property db n "uid" (Value.Int 8);
  Db.rollback_txn db txn;
  check Alcotest.(list int) "index restored" [ n ]
    (Db.index_lookup db ~label:"user" ~property:"uid" (Value.Int 7));
  check Alcotest.(list int) "phantom cleared" []
    (Db.index_lookup db ~label:"user" ~property:"uid" (Value.Int 8))

let test_with_tx_exception_rolls_back () =
  let db = Db.create () in
  (try
     Db.with_tx db (fun () ->
         ignore (Db.create_node db ~label:"user" no_props);
         failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "rolled back" 0 (Db.node_count db);
  check Alcotest.bool "tx closed" false (Db.in_tx db)

let test_with_tx_exception_restores_structures () =
  (* One failing transaction touching every structure at once:
     degrees, relationship chains, property chains and index entries
     must all come back. *)
  let db, u0, u1, u2, t0 = small_graph () in
  Db.create_index db ~label:"user" ~property:"uid";
  let degrees () = (Db.out_degree db u0, Db.in_degree db u2) in
  let neighbors () =
    List.sort compare (List.of_seq (Db.neighbors db u0 ~etype:"follows" Types.Out))
  in
  let before = (degrees (), neighbors (), Db.node_property db t0 "text") in
  (try
     Db.with_tx db (fun () ->
         ignore (Db.create_edge db ~etype:"follows" ~src:u2 ~dst:u0 no_props);
         let edges = List.of_seq (Db.edges_of db u0 ~etype:"follows" Types.Out) in
         Db.delete_edge db (List.hd edges).Types.id;
         Db.set_node_property db u1 "uid" (Value.Int 99);
         Db.set_node_property db t0 "text" (Value.Str "rewritten");
         failwith "boom")
   with Failure _ -> ());
  check Alcotest.bool "tx closed" false (Db.in_tx db);
  check
    (Alcotest.triple
       (Alcotest.pair Alcotest.int Alcotest.int)
       Alcotest.(list int)
       value_testable)
    "degrees, chains, property restored" before
    (degrees (), neighbors (), Db.node_property db t0 "text");
  check Alcotest.(list int) "index entry restored" [ u1 ]
    (Db.index_lookup db ~label:"user" ~property:"uid" (Value.Int 1));
  check Alcotest.(list int) "phantom index entry cleared" []
    (Db.index_lookup db ~label:"user" ~property:"uid" (Value.Int 99))

let test_rollback_of_densify_node () =
  (* An explicit densify_node inside a rolled-back tx: the conversion
     is a semantically neutral reorganisation and persists, but every
     logical change from the tx disappears and the graph reads the
     same as before. *)
  let db, u0, _, _, _ = small_graph () in
  let before =
    List.sort compare (List.of_seq (Db.neighbors db u0 ~etype:"follows" Types.Out))
  in
  let txn = Db.begin_txn db in
  Db.densify_node db u0;
  let extra = Db.create_node db ~label:"user" no_props in
  ignore (Db.create_edge db ~etype:"follows" ~src:u0 ~dst:extra no_props);
  Db.rollback_txn db txn;
  check Alcotest.bool "conversion persists" true (Db.is_dense_node db u0);
  check Alcotest.int "degree restored" 3 (Db.out_degree db u0);
  check Alcotest.(list int) "neighbors restored" before
    (List.sort compare (List.of_seq (Db.neighbors db u0 ~etype:"follows" Types.Out)))

let test_nested_tx_rejected () =
  let db = Db.create () in
  let txn = Db.begin_txn db in
  check Alcotest.bool "nested rejected" true
    (try
       Db.with_tx db ignore;
       false
     with Db.Tx_error _ -> true);
  Db.rollback_txn db txn

(* ------------------------------------------------------------------ *)
(* Cost accounting                                                     *)
(* ------------------------------------------------------------------ *)

let test_expansion_costs_db_hits () =
  let db, u0, _, _, _ = small_graph () in
  let before = Cost_model.snapshot (Sim_disk.cost (Db.disk db)) in
  ignore (Seq.length (Db.neighbors db u0 Types.Out));
  let delta =
    Cost_model.sub_counters (Cost_model.snapshot (Sim_disk.cost (Db.disk db))) before
  in
  (* chain head read + one record per relationship *)
  check Alcotest.bool "db hits counted" true (delta.db_hits >= 4)

(* ------------------------------------------------------------------ *)
(* Traversal framework                                                 *)
(* ------------------------------------------------------------------ *)

let chain_graph () =
  (* u0 -> u1 -> u2 -> u3, plus shortcut u0 -> u2 *)
  let db = Db.create () in
  let n () = Db.create_node db ~label:"user" no_props in
  let u0 = n () and u1 = n () and u2 = n () and u3 = n () in
  let f a b = ignore (Db.create_edge db ~etype:"follows" ~src:a ~dst:b no_props) in
  f u0 u1;
  f u1 u2;
  f u2 u3;
  f u0 u2;
  (db, u0, u1, u2, u3)

let test_traversal_bfs_depths () =
  let db, u0, u1, u2, u3 = chain_graph () in
  let desc =
    Traversal.(description () |> fun d -> expand d ~etype:"follows" Types.Out)
  in
  let paths = List.of_seq (Traversal.traverse db desc u0) in
  let by_depth d =
    List.sort compare
      (List.filter_map
         (fun p -> if p.Traversal.length = d then Some p.Traversal.end_node else None)
         paths)
  in
  check Alcotest.(list int) "depth 1" [ u1; u2 ] (by_depth 1);
  (* u2 already visited at depth 1; global uniqueness hides the longer path *)
  check Alcotest.(list int) "depth 2" [ u3 ] (by_depth 2)

let test_traversal_depth_bounds () =
  let db, u0, _, u2, u3 = chain_graph () in
  let desc =
    Traversal.(
      description ()
      |> fun d ->
      expand d ~etype:"follows" Types.Out |> fun d -> min_depth d 2 |> fun d -> max_depth d 2)
  in
  let ends = List.sort compare (List.of_seq (Traversal.traverse_nodes db desc u0)) in
  (* BFS global uniqueness: u2 seen at depth 1, so only u3 remains at depth 2. *)
  check Alcotest.(list int) "only depth-2 nodes" [ u3 ] ends;
  ignore u2

let test_traversal_node_path_uniqueness_counts_paths () =
  let db, u0, _, u2, _ = chain_graph () in
  let desc =
    Traversal.(
      description ()
      |> fun d ->
      expand d ~etype:"follows" Types.Out
      |> fun d ->
      uniqueness d Traversal.Node_path |> fun d -> min_depth d 1 |> fun d -> max_depth d 2)
  in
  let ends = List.of_seq (Traversal.traverse_nodes db desc u0) in
  (* u2 is reachable twice: directly and through u1. *)
  let hits = List.length (List.filter (fun n -> n = u2) ends) in
  check Alcotest.int "both paths to u2 reported" 2 hits

let test_traversal_evaluator_prune () =
  let db, u0, u1, _, _ = chain_graph () in
  let stop_at_u1 _db (p : Traversal.path) =
    if p.Traversal.end_node = u1 then Traversal.include_and_prune
    else Traversal.include_and_continue
  in
  let desc =
    Traversal.(
      description ()
      |> fun d -> expand d ~etype:"follows" Types.Out |> fun d -> evaluator d stop_at_u1)
  in
  let paths = List.of_seq (Traversal.traverse db desc u0) in
  (* u1's subtree is pruned: u3 only reachable via u2 shortcut then u3. *)
  let via_u1_deep =
    List.exists
      (fun p ->
        p.Traversal.length > 1
        && List.exists (fun n -> n = u1) (Traversal.nodes p))
      paths
  in
  check Alcotest.bool "nothing expanded below u1" false via_u1_deep

let test_traversal_path_nodes_order () =
  let db, u0, u1, u2, _ = chain_graph () in
  let desc =
    Traversal.(
      description ()
      |> fun d ->
      expand d ~etype:"follows" Types.Out |> fun d -> min_depth d 2 |> fun d -> max_depth d 2)
  in
  let paths = List.of_seq (Traversal.traverse db desc u0) in
  let p = List.find (fun p -> p.Traversal.end_node = u2 || p.Traversal.length = 2) paths in
  let ns = Traversal.nodes p in
  check Alcotest.int "starts at u0" u0 (List.hd ns);
  check Alcotest.int "length+1 nodes" (p.Traversal.length + 1) (List.length ns);
  ignore u1

let test_traversal_dfs_order () =
  (* u0 -> u1 -> u2 -> u3 and u0 -> u2: DFS dives before visiting
     siblings; BFS exhausts depth 1 first. *)
  let db, u0, u1, u2, u3 = chain_graph () in
  let desc order_kind =
    Traversal.(
      description ()
      |> fun d -> expand d ~etype:"follows" Types.Out |> fun d -> order d order_kind)
  in
  let visits order_kind =
    List.map (fun p -> p.Traversal.end_node)
      (List.of_seq (Traversal.traverse db (desc order_kind) u0))
  in
  (* Sibling order follows chain order (most recent first), which is
     not semantic; both strategies must reach the same node set. *)
  let bfs = visits Traversal.Breadth_first in
  let dfs = visits Traversal.Depth_first in
  check Alcotest.(list int) "bfs coverage" [ u1; u2; u3 ] (List.sort compare bfs);
  check Alcotest.(list int) "dfs coverage" [ u1; u2; u3 ] (List.sort compare dfs);
  let db2 = Db.create () in
  let n () = Db.create_node db2 ~label:"user" no_props in
  let a = n () and b = n () and c = n () and d_node = n () in
  let f x y = ignore (Db.create_edge db2 ~etype:"follows" ~src:x ~dst:y no_props) in
  f a b;
  f a c;
  f b d_node;
  (* BFS: b, c, d; DFS: dives through one branch before the other. *)
  let desc2 order_kind =
    Traversal.(
      description ()
      |> fun t -> expand t ~etype:"follows" Types.Out |> fun t -> order t order_kind)
  in
  let run order_kind =
    List.map (fun p -> p.Traversal.end_node)
      (List.of_seq (Traversal.traverse db2 (desc2 order_kind) a))
  in
  (* BFS exhausts depth 1 (b and c, in chain order c-then-b) before d;
     DFS dives through b to d before (or after) c, never between both
     depth-1 nodes with d last unless the dive happened first. *)
  let bfs_wide = run Traversal.Breadth_first in
  check Alcotest.int "bfs emits d last" d_node (List.nth bfs_wide 2);
  let dfs_wide = run Traversal.Depth_first in
  check Alcotest.bool
    (Printf.sprintf "dfs dives through b to d consecutively (got %s)"
       (String.concat "," (List.map string_of_int dfs_wide)))
    true
    (dfs_wide = [ b; d_node; c ] || dfs_wide = [ c; b; d_node ])

let test_traversal_requires_expander () =
  let db, u0, _, _, _ = chain_graph () in
  check Alcotest.bool "invalid arg" true
    (try
       let (_ : Traversal.path Seq.t) =
         Traversal.traverse db (Traversal.description ()) u0
       in
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Shortest path                                                       *)
(* ------------------------------------------------------------------ *)

let test_shortest_path_simple () =
  let db, u0, _, u2, u3 = chain_graph () in
  check
    Alcotest.(option (list int))
    "direct shortcut wins"
    (Some [ u0; u2 ])
    (Algo.shortest_path db ~etype:"follows" ~direction:Types.Out ~src:u0 ~dst:u2
       ~max_hops:5);
  check
    Alcotest.(option int)
    "u0 -> u3 via shortcut"
    (Some 2)
    (Algo.hop_distance db ~etype:"follows" ~direction:Types.Out ~src:u0 ~dst:u3 ~max_hops:5)

let test_shortest_path_unreachable () =
  let db, u0, _, _, _ = chain_graph () in
  let lone = Db.create_node db ~label:"user" no_props in
  check
    Alcotest.(option (list int))
    "unreachable" None
    (Algo.shortest_path db ~src:u0 ~dst:lone ~max_hops:10)

let test_shortest_path_respects_max_hops () =
  let db, u0, _, _, u3 = chain_graph () in
  check
    Alcotest.(option int)
    "within bound" (Some 2)
    (Algo.hop_distance db ~etype:"follows" ~direction:Types.Out ~src:u0 ~dst:u3 ~max_hops:2);
  check
    Alcotest.(option int)
    "bound too tight" None
    (Algo.hop_distance db ~etype:"follows" ~direction:Types.Out ~src:u0 ~dst:u3 ~max_hops:1)

let test_shortest_path_same_node () =
  let db, u0, _, _, _ = chain_graph () in
  check
    Alcotest.(option (list int))
    "trivial path"
    (Some [ u0 ])
    (Algo.shortest_path db ~src:u0 ~dst:u0 ~max_hops:3)

(* Reference BFS for the property test. *)
let reference_distance db ~src ~dst ~direction ~max_hops =
  let visited = Hashtbl.create 64 in
  Hashtbl.replace visited src 0;
  let queue = Queue.create () in
  Queue.push src queue;
  let result = ref None in
  while (not (Queue.is_empty queue)) && !result = None do
    let n = Queue.pop queue in
    let d = Hashtbl.find visited n in
    if n = dst then result := Some d
    else if d < max_hops then
      Seq.iter
        (fun m ->
          if not (Hashtbl.mem visited m) then begin
            Hashtbl.replace visited m (d + 1);
            Queue.push m queue
          end)
        (Db.neighbors db n direction)
  done;
  match !result with
  | Some d -> Some d
  | None -> if Hashtbl.mem visited dst && Hashtbl.find visited dst <= max_hops then Hashtbl.find_opt visited dst else None

let random_graph seed n_nodes n_edges =
  let rng = Rng.create seed in
  let db = Db.create () in
  let nodes = Array.init n_nodes (fun _ -> Db.create_node db ~label:"user" no_props) in
  for _ = 1 to n_edges do
    let a = nodes.(Rng.int rng n_nodes) and b = nodes.(Rng.int rng n_nodes) in
    if a <> b then ignore (Db.create_edge db ~etype:"follows" ~src:a ~dst:b no_props)
  done;
  (db, nodes)

let prop_shortest_path_matches_reference =
  QCheck.Test.make ~name:"bidirectional BFS = reference BFS distance" ~count:60
    QCheck.(triple small_int (int_range 2 25) (int_range 0 60))
    (fun (seed, n_nodes, n_edges) ->
      let db, nodes = random_graph seed n_nodes n_edges in
      let rng = Rng.create (seed + 1) in
      let src = nodes.(Rng.int rng n_nodes) and dst = nodes.(Rng.int rng n_nodes) in
      let expected = reference_distance db ~src ~dst ~direction:Types.Both ~max_hops:4 in
      let got = Algo.hop_distance db ~src ~dst ~direction:Types.Both ~max_hops:4 in
      got = expected)

let prop_shortest_path_is_valid_path =
  QCheck.Test.make ~name:"returned path is a real edge walk" ~count:60
    QCheck.(triple small_int (int_range 2 25) (int_range 0 60))
    (fun (seed, n_nodes, n_edges) ->
      let db, nodes = random_graph seed n_nodes n_edges in
      let rng = Rng.create (seed + 2) in
      let src = nodes.(Rng.int rng n_nodes) and dst = nodes.(Rng.int rng n_nodes) in
      match Algo.shortest_path db ~src ~dst ~direction:Types.Both ~max_hops:4 with
      | None -> true
      | Some path ->
        let rec valid = function
          | [] -> false
          | [ last ] -> last = dst
          | a :: (b :: _ as rest) ->
            Seq.exists (fun n -> n = b) (Db.neighbors db a Types.Both) && valid rest
        in
        List.hd path = src && valid path)

(* ------------------------------------------------------------------ *)
(* Engine-level property tests                                         *)
(* ------------------------------------------------------------------ *)

let prop_degrees_match_chains =
  QCheck.Test.make ~name:"cached degrees = chain lengths" ~count:40
    QCheck.(triple small_int (int_range 1 20) (int_range 0 80))
    (fun (seed, n_nodes, n_edges) ->
      let db, nodes = random_graph seed n_nodes n_edges in
      Array.for_all
        (fun n ->
          Db.out_degree db n = Seq.length (Db.edges_of db n Types.Out)
          && Db.in_degree db n = Seq.length (Db.edges_of db n Types.In))
        nodes)

let prop_rollback_restores_counts =
  QCheck.Test.make ~name:"rollback restores node/edge counts" ~count:40
    QCheck.(pair small_int (int_range 1 30))
    (fun (seed, ops) ->
      let db, nodes = random_graph seed 10 20 in
      let before_nodes = Db.node_count db and before_edges = Db.edge_count db in
      let rng = Rng.create (seed + 3) in
      let txn = Db.begin_txn db in
      for _ = 1 to ops do
        match Rng.int rng 3 with
        | 0 -> ignore (Db.create_node db ~label:"user" no_props)
        | 1 ->
          let a = nodes.(Rng.int rng (Array.length nodes)) in
          let b = nodes.(Rng.int rng (Array.length nodes)) in
          if a <> b then ignore (Db.create_edge db ~etype:"follows" ~src:a ~dst:b no_props)
        | _ ->
          let a = nodes.(Rng.int rng (Array.length nodes)) in
          (match List.of_seq (Db.edges_of db a Types.Out) with
          | e :: _ -> Db.delete_edge db e.Types.id
          | [] -> ())
      done;
      Db.rollback_txn db txn;
      Db.node_count db = before_nodes && Db.edge_count db = before_edges)

(* ------------------------------------------------------------------ *)
(* Dense nodes (relationship groups)                                   *)
(* ------------------------------------------------------------------ *)

(* A hub with enough edges of two types to cross a low threshold. *)
let dense_hub ?(threshold = 6) () =
  let db = Db.create ~dense_node_threshold:threshold () in
  let hub = Db.create_node db ~label:"user" no_props in
  let spokes = Array.init 10 (fun _ -> Db.create_node db ~label:"user" no_props) in
  Array.iteri
    (fun i s ->
      let etype = if i mod 2 = 0 then "follows" else "mentions" in
      if i < 7 then ignore (Db.create_edge db ~etype ~src:hub ~dst:s no_props)
      else ignore (Db.create_edge db ~etype ~src:s ~dst:hub no_props))
    spokes;
  (db, hub, spokes)

let test_dense_conversion_happens () =
  let db, hub, _ = dense_hub () in
  check Alcotest.bool "hub is dense" true (Db.is_dense_node db hub);
  check Alcotest.bool "spokes stay sparse" false (Db.is_dense_node db 1)

let test_dense_preserves_edges () =
  let db, hub, spokes = dense_hub () in
  check Alcotest.int "out degree" 7 (Db.out_degree db hub);
  check Alcotest.int "in degree" 3 (Db.in_degree db hub);
  let out = List.sort compare (List.of_seq (Db.neighbors db hub Types.Out)) in
  check Alcotest.(list int) "out neighbors intact"
    (List.sort compare (Array.to_list (Array.sub spokes 0 7)))
    out;
  check Alcotest.int "typed expansion follows" 4
    (Seq.length (Db.edges_of db hub ~etype:"follows" Types.Out));
  check Alcotest.int "typed expansion mentions" 3
    (Seq.length (Db.edges_of db hub ~etype:"mentions" Types.Out));
  check Alcotest.int "typed both" 5 (Db.degree db hub ~etype:"follows" Types.Both)

let test_dense_typed_expansion_cheaper () =
  (* On a dense node, a typed expansion must not touch the other
     types' relationship records. *)
  let db = Db.create ~dense_node_threshold:8 () in
  let hub = Db.create_node db ~label:"user" no_props in
  for _ = 1 to 50 do
    let s = Db.create_node db ~label:"user" no_props in
    ignore (Db.create_edge db ~etype:"follows" ~src:hub ~dst:s no_props)
  done;
  (* one lonely mentions edge among 50 follows *)
  let m = Db.create_node db ~label:"user" no_props in
  ignore (Db.create_edge db ~etype:"mentions" ~src:hub ~dst:m no_props);
  check Alcotest.bool "dense" true (Db.is_dense_node db hub);
  let cost = Mgq_storage.Sim_disk.cost (Db.disk db) in
  let hits f =
    let before = (Cost_model.snapshot cost).Cost_model.db_hits in
    ignore (Seq.length (f ()));
    (Cost_model.snapshot cost).Cost_model.db_hits - before
  in
  let typed = hits (fun () -> Db.edges_of db hub ~etype:"mentions" Types.Out) in
  let untyped = hits (fun () -> Db.edges_of db hub Types.Out) in
  check Alcotest.bool
    (Printf.sprintf "typed (%d hits) much cheaper than untyped (%d)" typed untyped)
    true
    (typed * 5 < untyped)

let test_dense_delete_edge () =
  let db, hub, spokes = dense_hub () in
  let victim =
    List.find (fun (e : Types.edge) -> e.dst = spokes.(0)) (List.of_seq (Db.edges_of db hub Types.Out))
  in
  Db.delete_edge db victim.Types.id;
  check Alcotest.int "degree drops" 6 (Db.out_degree db hub);
  check Alcotest.bool "edge gone" false
    (Seq.exists (fun n -> n = spokes.(0)) (Db.neighbors db hub Types.Out))

let test_dense_rollback_across_densification () =
  (* Begin a tx on a sparse node, push it over the threshold inside
     the tx, roll back: all edges created in the tx disappear even
     though the node converted (conversion itself persists). *)
  let db = Db.create ~dense_node_threshold:5 () in
  let hub = Db.create_node db ~label:"user" no_props in
  let a = Db.create_node db ~label:"user" no_props in
  ignore (Db.create_edge db ~etype:"follows" ~src:hub ~dst:a no_props);
  let txn = Db.begin_txn db in
  for _ = 1 to 8 do
    let s = Db.create_node db ~label:"user" no_props in
    ignore (Db.create_edge db ~etype:"follows" ~src:hub ~dst:s no_props)
  done;
  check Alcotest.bool "densified inside tx" true (Db.is_dense_node db hub);
  Db.rollback_txn db txn;
  check Alcotest.int "only the pre-tx edge remains" 1 (Db.out_degree db hub);
  check Alcotest.(list int) "neighbor set restored" [ a ]
    (List.of_seq (Db.neighbors db hub Types.Out));
  (* and the graph still works after rollback *)
  let b = Db.create_node db ~label:"user" no_props in
  ignore (Db.create_edge db ~etype:"mentions" ~src:hub ~dst:b no_props);
  check Alcotest.int "writable after rollback" 2 (Db.out_degree db hub)

let prop_dense_equals_sparse =
  QCheck.Test.make ~name:"dense threshold does not change semantics" ~count:40
    QCheck.(triple small_int (int_range 2 15) (int_range 0 120))
    (fun (seed, n_nodes, n_edges) ->
      let build threshold =
        let rng = Rng.create seed in
        let db = Db.create ~dense_node_threshold:threshold () in
        let nodes =
          Array.init n_nodes (fun _ -> Db.create_node db ~label:"user" no_props)
        in
        for _ = 1 to n_edges do
          let a = nodes.(Rng.int rng n_nodes) and b = nodes.(Rng.int rng n_nodes) in
          let etype = if Rng.bool rng then "follows" else "mentions" in
          ignore (Db.create_edge db ~etype ~src:a ~dst:b no_props)
        done;
        (db, nodes)
      in
      let sparse_db, sparse_nodes = build max_int in
      let dense_db, dense_nodes = build 3 in
      let ok = ref true in
      Array.iteri
        (fun i n_sparse ->
          let n_dense = dense_nodes.(i) in
          List.iter
            (fun dir ->
              List.iter
                (fun etype ->
                  let sorted db n et =
                    List.sort compare (List.of_seq (Db.neighbors db n ?etype:et dir))
                  in
                  (* node ids coincide: identical construction order *)
                  if sorted sparse_db n_sparse etype <> sorted dense_db n_dense etype then
                    ok := false)
                [ None; Some "follows"; Some "mentions" ])
            [ Types.Out; Types.In; Types.Both ])
        sparse_nodes;
      !ok)

(* ------------------------------------------------------------------ *)
(* Chain reads: neighbors = other endpoints of edges_of                 *)
(* ------------------------------------------------------------------ *)

let script_etypes = [| "follows"; "mentions"; "posts" |]

(* A graph script (threshold, node count, ops). Each op (kind, a, b)
   takes node indices modulo the node count: kinds 0-2 create an edge
   of that type from a to b (a self-loop when they coincide), 3
   deletes a live edge picked by b, 4 densifies node a. A two-page
   pool makes every store switch a page fault, so the fault counts
   pin the order of page accesses, not just their number. *)
let build_script (threshold, n_nodes, ops) =
  let db = Db.create ~pool_pages:2 ~dense_node_threshold:threshold () in
  let nodes = Array.init n_nodes (fun _ -> Db.create_node db ~label:"user" no_props) in
  let live = ref [] in
  List.iter
    (fun (kind, a, b) ->
      let a = nodes.(a mod n_nodes) and b = nodes.(b mod n_nodes) in
      if kind < 3 then
        live := Db.create_edge db ~etype:script_etypes.(kind) ~src:a ~dst:b no_props :: !live
      else if kind = 3 then begin
        match !live with
        | [] -> ()
        | l ->
          let victim = List.nth l (b mod List.length l) in
          Db.delete_edge db victim;
          live := List.filter (fun e -> e <> victim) l
      end
      else Db.densify_node db a)
    ops;
  (db, nodes)

let script_arb =
  QCheck.(
    triple (int_range 2 6) (int_range 1 8)
      (small_list (triple (int_bound 4) small_nat small_nat)))

(* Two identically scripted stores, one read through [neighbors] and
   one through [edges_of]: per node, direction and type filter (none,
   known, unknown) the answers must match in order, and the two reads
   must charge identical counters. [prepare] runs on both stores
   before the reads. *)
let chain_reads_agree ?(prepare = fun _ _ -> ()) spec =
  let a, nodes = build_script spec and b, _ = build_script spec in
  prepare a nodes;
  prepare b nodes;
  let measure db f =
    let cost = Sim_disk.cost (Db.disk db) in
    let before = Cost_model.snapshot cost in
    let v = f () in
    (v, Cost_model.sub_counters (Cost_model.snapshot cost) before)
  in
  Array.for_all
    (fun n ->
      List.for_all
        (fun dir ->
          List.for_all
            (fun etype ->
              let got = measure a (fun () -> List.of_seq (Db.neighbors a n ?etype dir)) in
              let want =
                measure b (fun () ->
                    List.map (fun e -> Types.other_end e n) (List.of_seq (Db.edges_of b n ?etype dir)))
              in
              got = want)
            [ None; Some "mentions"; Some "unknown" ])
        [ Types.Out; Types.In; Types.Both ])
    nodes

let prop_neighbors_match_edges =
  QCheck.Test.make ~name:"neighbors = other ends of edges_of, same cost" ~count:150 script_arb
    (fun spec -> chain_reads_agree spec)

(* The MVCC path: an open transaction holds an uncommitted insert, so
   both reads filter by visibility — first as the writer, then as an
   outside reader that must not see the insert. *)
let prop_neighbors_match_edges_mvcc =
  QCheck.Test.make ~name:"neighbors = other ends of edges_of under an open txn" ~count:100
    script_arb (fun spec ->
      let txns = ref [] in
      let prepare db nodes =
        let txn = Db.begin_txn db in
        let last = nodes.(Array.length nodes - 1) in
        ignore (Db.create_edge db ~etype:"mentions" ~src:nodes.(0) ~dst:last no_props : int);
        txns := (db, txn) :: !txns
      in
      let as_writer = chain_reads_agree ~prepare spec in
      let as_reader =
        chain_reads_agree
          ~prepare:(fun db nodes ->
            prepare db nodes;
            Db.deactivate db)
          spec
      in
      List.iter (fun (db, txn) -> Db.rollback_txn db txn) !txns;
      as_writer && as_reader)

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let test_save_load_roundtrip () =
  let db, u0, u1, _, _ = small_graph () in
  Db.create_index db ~label:"user" ~property:"uid";
  let path = Filename.temp_file "mgq_db" ".neo" in
  Db.save db path;
  let db2 = Db.load path in
  Sys.remove path;
  check Alcotest.int "node count" (Db.node_count db) (Db.node_count db2);
  check Alcotest.int "edge count" (Db.edge_count db) (Db.edge_count db2);
  check value_testable "property" (Value.Int 0) (Db.node_property db2 u0 "uid");
  check Alcotest.(list int) "neighbors" 
    (List.sort compare (List.of_seq (Db.neighbors db u0 Types.Out)))
    (List.sort compare (List.of_seq (Db.neighbors db2 u0 Types.Out)));
  check Alcotest.(list int) "index survives" [ u1 ]
    (Db.index_lookup db2 ~label:"user" ~property:"uid" (Value.Int 1));
  (* the loaded database stays writable *)
  let n = Db.create_node db2 ~label:"user" (props [ ("uid", Value.Int 99) ]) in
  ignore (Db.create_edge db2 ~etype:"follows" ~src:n ~dst:u0 no_props);
  check Alcotest.int "writable" (Db.node_count db + 1) (Db.node_count db2)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A reader holding the first snapshot open keeps reading it whole
   while a second save replaces the file: the new image goes to a
   temporary file renamed over the old one, never into the old one. *)
let test_save_replaces_atomically () =
  let db, _, _, _, _ = small_graph () in
  let path = Filename.temp_file "mgq_atomic" ".neo" in
  Db.save db path;
  let first = read_file path in
  let ic = open_in_bin path in
  ignore (Db.create_node db ~label:"user" no_props : int);
  Db.save db path;
  let held = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check Alcotest.string "open reader keeps the first image" first held;
  check Alcotest.int "path holds the second image" (Db.node_count db)
    (Db.node_count (Db.load path));
  check Alcotest.bool "no temporary file left" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

let test_save_rejects_open_tx () =
  let db, _, _, _, _ = small_graph () in
  let txn = Db.begin_txn db in
  check Alcotest.bool "refused" true
    (try
       Db.save db "/tmp/should_not_exist.neo";
       false
     with Db.Tx_error _ -> true);
  Db.rollback_txn db txn

let rejects_load what path =
  check Alcotest.bool what true
    (try
       ignore (Db.load path);
       false
     with Db.Corrupt_snapshot _ -> true)

let test_load_rejects_garbage () =
  let path = Filename.temp_file "mgq_garbage" ".bin" in
  let oc = open_out path in
  output_string oc "not a database";
  close_out oc;
  rejects_load "garbage rejected" path;
  Sys.remove path

(* Truncation and single-bit corruption anywhere in the payload must
   surface as [Corrupt_snapshot], never as a [Marshal] failure or a
   segfault. *)
let test_load_rejects_corruption () =
  let db = Db.create () in
  let _ = Db.create_node db ~label:"user" (Property.of_list [ ("name", Value.Str "ann") ]) in
  let path = Filename.temp_file "mgq_corrupt" ".bin" in
  Db.save db path;
  let bytes =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let b = really_input_string ic n in
    close_in ic;
    Bytes.of_string b
  in
  let write b =
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc
  in
  (* Truncated payload. *)
  write (Bytes.sub bytes 0 (Bytes.length bytes - 7));
  rejects_load "truncated rejected" path;
  (* Flip one bit deep in the payload. *)
  let flipped = Bytes.copy bytes in
  let pos = Bytes.length flipped - 11 in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0x10));
  write flipped;
  rejects_load "bit flip rejected" path;
  (* Bad version byte. *)
  let bad_version = Bytes.copy bytes in
  Bytes.set bad_version 8 '\x7f';
  write bad_version;
  rejects_load "bad version rejected" path;
  (* Intact snapshot still loads. *)
  write bytes;
  let reloaded = Db.load path in
  check Alcotest.int "intact loads" 1 (Db.node_count reloaded);
  Sys.remove path


(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "db-basics",
      [
        Alcotest.test_case "create and read node" `Quick test_create_and_read_node;
        Alcotest.test_case "create and read edge" `Quick test_create_and_read_edge;
        Alcotest.test_case "property update" `Quick test_property_update;
        Alcotest.test_case "property types roundtrip" `Quick test_property_types_roundtrip;
        Alcotest.test_case "node properties map" `Quick test_node_properties_map;
        Alcotest.test_case "missing node raises" `Quick test_missing_node_raises;
      ] );
    ( "db-chains",
      [
        Alcotest.test_case "degrees" `Quick test_degrees;
        Alcotest.test_case "neighbors by direction" `Quick test_neighbors_directions;
        Alcotest.test_case "self loop once" `Quick test_self_loop_reported_once;
        Alcotest.test_case "parallel edges" `Quick test_parallel_edges_multigraph;
        Alcotest.test_case "delete edge" `Quick test_delete_edge;
        Alcotest.test_case "delete node isolation" `Quick test_delete_node_requires_isolation;
        qtest prop_degrees_match_chains;
      ] );
    ( "db-scans",
      [ Alcotest.test_case "label scan" `Quick test_label_scan ] );
    ( "db-indexes",
      [
        Alcotest.test_case "lookup" `Quick test_index_lookup;
        Alcotest.test_case "tracks updates" `Quick test_index_tracks_updates;
        Alcotest.test_case "missing raises" `Quick test_index_missing_raises;
      ] );
    ( "db-transactions",
      [
        Alcotest.test_case "commit" `Quick test_tx_commit;
        Alcotest.test_case "rollback create node" `Quick test_tx_rollback_create_node;
        Alcotest.test_case "rollback create edge" `Quick test_tx_rollback_create_edge;
        Alcotest.test_case "rollback set property" `Quick test_tx_rollback_set_property;
        Alcotest.test_case "rollback delete edge" `Quick test_tx_rollback_delete_edge;
        Alcotest.test_case "rollback index sync" `Quick test_tx_rollback_index_sync;
        Alcotest.test_case "with_tx exception" `Quick test_with_tx_exception_rolls_back;
        Alcotest.test_case "with_tx restores structures" `Quick
          test_with_tx_exception_restores_structures;
        Alcotest.test_case "rollback of densify_node" `Quick test_rollback_of_densify_node;
        Alcotest.test_case "nested rejected" `Quick test_nested_tx_rejected;
        qtest prop_rollback_restores_counts;
      ] );
    ( "db-costs",
      [ Alcotest.test_case "expansion counts db hits" `Quick test_expansion_costs_db_hits ] );
    ( "traversal",
      [
        Alcotest.test_case "bfs depths" `Quick test_traversal_bfs_depths;
        Alcotest.test_case "depth bounds" `Quick test_traversal_depth_bounds;
        Alcotest.test_case "node-path uniqueness" `Quick
          test_traversal_node_path_uniqueness_counts_paths;
        Alcotest.test_case "evaluator prune" `Quick test_traversal_evaluator_prune;
        Alcotest.test_case "path node order" `Quick test_traversal_path_nodes_order;
        Alcotest.test_case "dfs order" `Quick test_traversal_dfs_order;
        Alcotest.test_case "requires expander" `Quick test_traversal_requires_expander;
      ] );
    ( "dense-nodes",
      [
        Alcotest.test_case "conversion happens" `Quick test_dense_conversion_happens;
        Alcotest.test_case "edges preserved" `Quick test_dense_preserves_edges;
        Alcotest.test_case "typed expansion cheaper" `Quick test_dense_typed_expansion_cheaper;
        Alcotest.test_case "delete on dense" `Quick test_dense_delete_edge;
        Alcotest.test_case "rollback across densification" `Quick
          test_dense_rollback_across_densification;
        qtest prop_dense_equals_sparse;
      ] );
    ( "chain-reads",
      [
        qtest ~rand:(Random.State.make [| 18 |]) prop_neighbors_match_edges;
        qtest ~rand:(Random.State.make [| 19 |]) prop_neighbors_match_edges_mvcc;
      ] );
    ( "persistence",
      [
        Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
        Alcotest.test_case "save replaces atomically" `Quick test_save_replaces_atomically;
        Alcotest.test_case "save rejects open tx" `Quick test_save_rejects_open_tx;
        Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
        Alcotest.test_case "load rejects corruption" `Quick test_load_rejects_corruption;
      ] );
    ( "shortest-path",
      [
        Alcotest.test_case "simple" `Quick test_shortest_path_simple;
        Alcotest.test_case "unreachable" `Quick test_shortest_path_unreachable;
        Alcotest.test_case "max hops" `Quick test_shortest_path_respects_max_hops;
        Alcotest.test_case "same node" `Quick test_shortest_path_same_node;
        qtest prop_shortest_path_matches_reference;
        qtest prop_shortest_path_is_valid_path;
      ] );
  ]

let () = Alcotest.run "mgq_neo" suite
