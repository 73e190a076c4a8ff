(* Tests for the Sparksee-analog engine: schema, attributes, indexes,
   navigation (neighbors/explode), Objects algebra, traversals and the
   native shortest-path BFS. *)

module Sdb = Mgq_sparks.Sdb
module Objects = Mgq_sparks.Objects
module Straversal = Mgq_sparks.Straversal
module Salgo = Mgq_sparks.Salgo
module Value = Mgq_core.Value
module Types = Mgq_core.Types
module Cost_model = Mgq_storage.Cost_model
module Rng = Mgq_util.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let value_testable =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Value.to_display v))
    (fun a b -> a = b)

(* Shared fixture: the same five-user graph as the Cypher tests.
     follows: 0->1, 0->2, 1->2, 2->3, 3->0, 4->0  *)
let graph ?materialize_neighbors () =
  let db = Sdb.create ?materialize_neighbors () in
  let user_t = Sdb.new_node_type db "user" in
  let follows_t = Sdb.new_edge_type db "follows" in
  let uid_a = Sdb.new_attribute db user_t "uid" Sdb.Type_int Sdb.Unique in
  let users =
    Array.init 5 (fun i ->
        let n = Sdb.new_node db user_t in
        Sdb.set_attribute db n uid_a (Value.Int i);
        n)
  in
  List.iter
    (fun (a, b) -> ignore (Sdb.new_edge db follows_t ~tail:users.(a) ~head:users.(b)))
    [ (0, 1); (0, 2); (1, 2); (2, 3); (3, 0); (4, 0) ];
  (db, user_t, follows_t, uid_a, users)

(* ------------------------------------------------------------------ *)
(* Objects                                                             *)
(* ------------------------------------------------------------------ *)

let test_objects_algebra () =
  let a = Objects.of_list [ 1; 2; 3 ] and b = Objects.of_list [ 2; 3; 4 ] in
  check Alcotest.(list int) "union" [ 1; 2; 3; 4 ] (Objects.to_list (Objects.union a b));
  check Alcotest.(list int) "inter" [ 2; 3 ] (Objects.to_list (Objects.inter a b));
  check Alcotest.(list int) "diff" [ 1 ] (Objects.to_list (Objects.difference a b));
  check Alcotest.int "count" 3 (Objects.count a);
  check Alcotest.bool "contains" true (Objects.contains a 2);
  check Alcotest.bool "not contains" false (Objects.contains a 9)

let test_objects_sample () =
  let a = Objects.of_list [ 10; 20; 30 ] in
  let rng = Rng.create 7 in
  for _ = 1 to 20 do
    let v = Objects.sample a rng in
    check Alcotest.bool "sample is member" true (Objects.contains a v)
  done

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

let test_schema_basics () =
  let db, user_t, follows_t, uid_a, _ = graph () in
  check Alcotest.int "find user type" user_t (Sdb.find_type db "user");
  check Alcotest.int "find follows type" follows_t (Sdb.find_type db "follows");
  check Alcotest.string "type name" "user" (Sdb.type_name db user_t);
  check Alcotest.int "find attribute" uid_a (Sdb.find_attribute db user_t "uid");
  check Alcotest.(list string) "attribute names" [ "uid" ] (Sdb.attribute_names db user_t);
  check Alcotest.bool "unknown type raises" true
    (try
       ignore (Sdb.find_type db "nope");
       false
     with Types.Schema_error _ -> true)

let test_schema_duplicate_rejected () =
  let db, user_t, _, _, _ = graph () in
  check Alcotest.bool "dup type" true
    (try
       ignore (Sdb.new_node_type db "user");
       false
     with Types.Schema_error _ -> true);
  check Alcotest.bool "dup attr" true
    (try
       ignore (Sdb.new_attribute db user_t "uid" Sdb.Type_int Sdb.Basic);
       false
     with Types.Schema_error _ -> true)

let test_wrong_kind_rejected () =
  let db, user_t, follows_t, _, users = graph () in
  check Alcotest.bool "edge type for node" true
    (try
       ignore (Sdb.new_node db follows_t);
       false
     with Types.Schema_error _ -> true);
  check Alcotest.bool "node type for edge" true
    (try
       ignore (Sdb.new_edge db user_t ~tail:users.(0) ~head:users.(1));
       false
     with Types.Schema_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Attributes                                                          *)
(* ------------------------------------------------------------------ *)

let test_attribute_roundtrip () =
  let db, user_t, _, uid_a, users = graph () in
  let name_a = Sdb.new_attribute db user_t "name" Sdb.Type_string Sdb.Basic in
  Sdb.set_attribute db users.(0) name_a (Value.Str "ada");
  check value_testable "string attr" (Value.Str "ada") (Sdb.get_attribute db users.(0) name_a);
  check value_testable "unset is null" Value.Null (Sdb.get_attribute db users.(1) name_a);
  check value_testable "uid" (Value.Int 3) (Sdb.get_attribute db users.(3) uid_a);
  Sdb.set_attribute db users.(0) name_a Value.Null;
  check value_testable "null removes" Value.Null (Sdb.get_attribute db users.(0) name_a)

let test_attribute_type_enforced () =
  let db, _, _, uid_a, users = graph () in
  check Alcotest.bool "type mismatch" true
    (try
       Sdb.set_attribute db users.(0) uid_a (Value.Str "oops");
       false
     with Types.Schema_error _ -> true)

let test_attribute_wrong_owner () =
  let db, _, follows_t, uid_a, users = graph () in
  let e = Sdb.new_edge db follows_t ~tail:users.(0) ~head:users.(3) in
  check Alcotest.bool "edge lacks uid" true
    (try
       Sdb.set_attribute db e uid_a (Value.Int 9);
       false
     with Types.Schema_error _ -> true)

let test_unique_attribute_enforced () =
  let db, user_t, _, uid_a, _ = graph () in
  let n = Sdb.new_node db user_t in
  check Alcotest.bool "duplicate unique" true
    (try
       Sdb.set_attribute db n uid_a (Value.Int 2);
       false
     with Failure _ -> true)

let test_find_object_and_select () =
  let db, _, _, uid_a, users = graph () in
  check Alcotest.(option int) "find uid=2" (Some users.(2)) (Sdb.find_object db uid_a (Value.Int 2));
  check Alcotest.(option int) "find missing" None (Sdb.find_object db uid_a (Value.Int 99));
  check Alcotest.(list int) "select" [ users.(4) ]
    (Objects.to_list (Sdb.select db uid_a (Value.Int 4)))

let test_select_scan_basic_attr () =
  let db, user_t, _, _, users = graph () in
  let age_a = Sdb.new_attribute db user_t "age" Sdb.Type_int Sdb.Basic in
  Array.iteri (fun i n -> Sdb.set_attribute db n age_a (Value.Int (20 + i))) users;
  check Alcotest.(list int) "scan equality" [ users.(2) ]
    (Objects.to_list (Sdb.select db age_a (Value.Int 22)));
  check Alcotest.int "range scan" 3
    (Objects.count
       (Sdb.select_range db age_a ~min_v:(Value.Int 21) ~max_v:(Value.Int 23) ()))

let test_index_updates_on_change () =
  let db, _, _, uid_a, users = graph () in
  Sdb.set_attribute db users.(0) uid_a (Value.Int 100);
  check Alcotest.(option int) "old gone" None (Sdb.find_object db uid_a (Value.Int 0));
  check Alcotest.(option int) "new found" (Some users.(0))
    (Sdb.find_object db uid_a (Value.Int 100))

(* ------------------------------------------------------------------ *)
(* Navigation                                                          *)
(* ------------------------------------------------------------------ *)

let test_neighbors_directions () =
  let db, _, follows_t, _, users = graph () in
  let sorted objs = List.sort compare (Objects.to_list objs) in
  check Alcotest.(list int) "out of u0" [ users.(1); users.(2) ]
    (sorted (Sdb.neighbors db users.(0) follows_t Types.Out));
  check Alcotest.(list int) "in of u0" [ users.(3); users.(4) ]
    (sorted (Sdb.neighbors db users.(0) follows_t Types.In));
  check Alcotest.(list int) "both of u0"
    [ users.(1); users.(2); users.(3); users.(4) ]
    (sorted (Sdb.neighbors db users.(0) follows_t Types.Both))

let test_neighbors_unique_on_parallel_edges () =
  let db, _, follows_t, _, users = graph () in
  ignore (Sdb.new_edge db follows_t ~tail:users.(0) ~head:users.(1));
  (* parallel edge: neighbors still unique, explode sees both *)
  check Alcotest.int "unique neighbors" 2
    (Objects.count (Sdb.neighbors db users.(0) follows_t Types.Out));
  check Alcotest.int "explode counts edges" 3
    (Objects.count (Sdb.explode db users.(0) follows_t Types.Out))

let test_explode_and_peer () =
  let db, _, follows_t, _, users = graph () in
  let edges = Objects.to_list (Sdb.explode db users.(0) follows_t Types.Out) in
  check Alcotest.int "two out edges" 2 (List.length edges);
  List.iter
    (fun e ->
      check Alcotest.int "tail is u0" users.(0) (Sdb.tail_of db e);
      let peer = Sdb.edge_peer db e users.(0) in
      check Alcotest.bool "peer is a followee" true (peer = users.(1) || peer = users.(2)))
    edges

let test_degree () =
  let db, _, follows_t, _, users = graph () in
  check Alcotest.int "out degree" 2 (Sdb.degree db users.(0) follows_t Types.Out);
  check Alcotest.int "in degree" 2 (Sdb.degree db users.(0) follows_t Types.In);
  check Alcotest.int "both" 4 (Sdb.degree db users.(0) follows_t Types.Both)

let test_materialized_neighbors_agree () =
  let db1, _, f1, _, u1 = graph () in
  let db2, _, f2, _, u2 = graph ~materialize_neighbors:true () in
  check Alcotest.bool "flag" true (Sdb.materializes_neighbors db2);
  for i = 0 to 4 do
    let a = List.sort compare (Objects.to_list (Sdb.neighbors db1 u1.(i) f1 Types.Both)) in
    let b = List.sort compare (Objects.to_list (Sdb.neighbors db2 u2.(i) f2 Types.Both)) in
    (* The oid spaces coincide because construction order is identical. *)
    check Alcotest.(list int) (Printf.sprintf "node %d" i) a b
  done

let test_counts () =
  let db, user_t, follows_t, _, _ = graph () in
  check Alcotest.int "nodes" 5 (Sdb.node_count db);
  check Alcotest.int "edges" 6 (Sdb.edge_count db);
  check Alcotest.int "user objects" 5 (Sdb.count_objects db user_t);
  check Alcotest.int "follows objects" 6 (Sdb.count_objects db follows_t);
  check Alcotest.int "objects_of_type" 5 (Objects.count (Sdb.objects_of_type db user_t))

let test_navigation_charges_cost () =
  let db, _, follows_t, _, users = graph () in
  let before = (Cost_model.snapshot (Sdb.cost db)).db_hits in
  ignore (Sdb.neighbors db users.(0) follows_t Types.Out);
  let after = (Cost_model.snapshot (Sdb.cost db)).db_hits in
  check Alcotest.bool "db hits counted" true (after > before)

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

let test_traversal_bfs () =
  let db, _, follows_t, _, users = graph () in
  let t =
    Straversal.create db ~start:users.(0)
    |> fun t ->
    Straversal.add_edge_type t follows_t Types.Out |> fun t -> Straversal.set_max_depth t 2
  in
  let visited = Straversal.run t in
  let at_depth d = List.filter_map (fun (n, d') -> if d = d' then Some n else None) visited in
  check Alcotest.(list int) "depth 1" [ users.(1); users.(2) ]
    (List.sort compare (at_depth 1));
  check Alcotest.(list int) "depth 2" [ users.(3) ] (at_depth 2)

let test_traversal_dfs () =
  let db, _, follows_t, _, users = graph () in
  let t =
    Straversal.create db ~start:users.(0)
    |> fun t ->
    Straversal.add_edge_type t follows_t Types.Out
    |> fun t -> Straversal.set_order t Straversal.Dfs
  in
  let visited = List.map fst (Straversal.run t) in
  (* Reaches the same node set as BFS, each exactly once. *)
  check Alcotest.(list int) "same coverage"
    [ users.(1); users.(2); users.(3) ]
    (List.sort compare visited);
  check Alcotest.int "no revisits" 3 (List.length visited)

let test_traversal_requires_expander () =
  let db, _, _, _, users = graph () in
  check Alcotest.bool "invalid" true
    (try
       ignore (Straversal.run (Straversal.create db ~start:users.(0)));
       false
     with Invalid_argument _ -> true)

let test_context_expansion () =
  let db, _, follows_t, _, users = graph () in
  let ctx = Straversal.Context.start db (Objects.of_list [ users.(0) ]) in
  let ctx1 = Straversal.Context.expand ctx ~etype:follows_t Types.Out in
  check Alcotest.(list int) "frontier after 1 step" [ users.(1); users.(2) ]
    (List.sort compare (Objects.to_list (Straversal.Context.frontier ctx1)));
  let ctx2 = Straversal.Context.expand ctx1 ~etype:follows_t Types.Out in
  check Alcotest.(list int) "frontier after 2 steps" [ users.(3) ]
    (Objects.to_list (Straversal.Context.frontier ctx2));
  check Alcotest.int "depth" 2 (Straversal.Context.depth ctx2);
  check Alcotest.int "visited size" 4 (Objects.count (Straversal.Context.visited ctx2))

(* ------------------------------------------------------------------ *)
(* Shortest path                                                       *)
(* ------------------------------------------------------------------ *)

let test_shortest_path_basic () =
  let db, _, follows_t, _, users = graph () in
  let sp =
    Salgo.Single_pair_shortest_path_bfs.create db ~src:users.(1) ~dst:users.(0)
      ~etypes:[ (follows_t, Types.Out) ] ~max_hops:4
  in
  check Alcotest.bool "exists" true (Salgo.Single_pair_shortest_path_bfs.exists sp);
  check Alcotest.(option int) "cost" (Some 3) (Salgo.Single_pair_shortest_path_bfs.cost sp);
  check
    Alcotest.(option (list int))
    "path"
    (Some [ users.(1); users.(2); users.(3); users.(0) ])
    (Salgo.Single_pair_shortest_path_bfs.path sp)

let test_shortest_path_undirected () =
  let db, _, follows_t, _, users = graph () in
  let sp =
    Salgo.Single_pair_shortest_path_bfs.create db ~src:users.(1) ~dst:users.(4)
      ~etypes:[ (follows_t, Types.Both) ] ~max_hops:3
  in
  check Alcotest.(option int) "undirected distance" (Some 2)
    (Salgo.Single_pair_shortest_path_bfs.cost sp)

let test_shortest_path_bounded () =
  let db, _, follows_t, _, users = graph () in
  let sp =
    Salgo.Single_pair_shortest_path_bfs.create db ~src:users.(1) ~dst:users.(0)
      ~etypes:[ (follows_t, Types.Out) ] ~max_hops:2
  in
  check Alcotest.bool "bound too small" false (Salgo.Single_pair_shortest_path_bfs.exists sp)

let test_shortest_path_same_node () =
  let db, _, follows_t, _, users = graph () in
  let sp =
    Salgo.Single_pair_shortest_path_bfs.create db ~src:users.(2) ~dst:users.(2)
      ~etypes:[ (follows_t, Types.Out) ] ~max_hops:3
  in
  check Alcotest.(option int) "trivial" (Some 0) (Salgo.Single_pair_shortest_path_bfs.cost sp)

(* ------------------------------------------------------------------ *)
(* Cross-engine equivalence on random graphs                           *)
(* ------------------------------------------------------------------ *)

let build_both seed n_nodes n_edges =
  let rng = Rng.create seed in
  let neo = Mgq_neo.Db.create () in
  let sdb = Sdb.create () in
  let user_t = Sdb.new_node_type sdb "user" in
  let follows_t = Sdb.new_edge_type sdb "follows" in
  let neo_nodes =
    Array.init n_nodes (fun _ -> Mgq_neo.Db.create_node neo ~label:"user" Mgq_core.Property.empty)
  in
  let s_nodes = Array.init n_nodes (fun _ -> Sdb.new_node sdb user_t) in
  for _ = 1 to n_edges do
    let a = Rng.int rng n_nodes and b = Rng.int rng n_nodes in
    if a <> b then begin
      ignore
        (Mgq_neo.Db.create_edge neo ~etype:"follows" ~src:neo_nodes.(a) ~dst:neo_nodes.(b)
           Mgq_core.Property.empty);
      ignore (Sdb.new_edge sdb follows_t ~tail:s_nodes.(a) ~head:s_nodes.(b))
    end
  done;
  (neo, sdb, follows_t, neo_nodes, s_nodes, n_nodes)

let prop_engines_agree_on_neighbors =
  QCheck.Test.make ~name:"neo and sparks agree on unique neighbor sets" ~count:40
    QCheck.(triple small_int (int_bound 19) (int_bound 60))
    (fun (seed, nodes, n_edges) ->
      (* An offset from the 1-node floor: shrinking towards 0 stays in
         range, where [int_range]'s shrinker walks below it. *)
      let n_nodes = 1 + nodes in
      let neo, sdb, follows_t, neo_nodes, s_nodes, n = build_both seed n_nodes n_edges in
      let ok = ref true in
      for i = 0 to n - 1 do
        List.iter
          (fun dir ->
            let from_neo =
              List.sort_uniq compare
                (List.of_seq (Mgq_neo.Db.neighbors neo neo_nodes.(i) ~etype:"follows" dir))
            in
            (* Map node ids through the parallel arrays: identical
               construction order means identical indexes. *)
            let from_sparks =
              List.sort compare (Objects.to_list (Sdb.neighbors sdb s_nodes.(i) follows_t dir))
            in
            let neo_as_sparks =
              List.sort compare
                (List.map
                   (fun nid ->
                     let rec find j = if neo_nodes.(j) = nid then s_nodes.(j) else find (j + 1) in
                     find 0)
                   from_neo)
            in
            if neo_as_sparks <> from_sparks then ok := false)
          [ Types.Out; Types.In; Types.Both ]
      done;
      !ok)

let prop_engines_agree_on_distance =
  QCheck.Test.make ~name:"neo and sparks agree on hop distance" ~count:40
    QCheck.(triple small_int (int_bound 18) (int_bound 60))
    (fun (seed, nodes, n_edges) ->
      (* An offset from the 2-node floor, as above. *)
      let n_nodes = 2 + nodes in
      let neo, sdb, follows_t, neo_nodes, s_nodes, n = build_both seed n_nodes n_edges in
      let rng = Rng.create (seed + 17) in
      let a = Rng.int rng n and b = Rng.int rng n in
      let from_neo =
        Mgq_neo.Algo.hop_distance neo ~etype:"follows" ~direction:Types.Both
          ~src:neo_nodes.(a) ~dst:neo_nodes.(b) ~max_hops:4
      in
      let sp =
        Salgo.Single_pair_shortest_path_bfs.create sdb ~src:s_nodes.(a) ~dst:s_nodes.(b)
          ~etypes:[ (follows_t, Types.Both) ] ~max_hops:4
      in
      let from_sparks = Salgo.Single_pair_shortest_path_bfs.cost sp in
      from_neo = from_sparks)

(* ------------------------------------------------------------------ *)
(* Load scripts                                                        *)
(* ------------------------------------------------------------------ *)

module Script = Mgq_sparks.Script

let script_text = {|
# a miniature Twittersphere
options extent_kb=64 cache_mb=2.0 recovery=off
node user
attribute user.uid int unique
attribute user.name string basic
node tweet
attribute tweet.tid int unique
edge follows user -> user
edge posts user -> tweet
load nodes user from users.tsv (uid, name)
load nodes tweet from tweets.tsv (tid)
load edges follows from follows.tsv keys user.uid user.uid
load edges posts from posts.tsv keys user.uid tweet.tid
|}

let write_script_files dir =
  let file name rows =
    let oc = open_out (Filename.concat dir name) in
    List.iter (Mgq_util.Tsv.write_row oc) rows;
    close_out oc
  in
  file "users.tsv" [ [ "1"; "ada" ]; [ "2"; "alan" ]; [ "3"; "grace" ] ];
  file "tweets.tsv" [ [ "10" ]; [ "20" ] ];
  file "follows.tsv" [ [ "1"; "2" ]; [ "2"; "3" ] ];
  file "posts.tsv" [ [ "1"; "10" ]; [ "3"; "20" ] ]

let with_script_dir f =
  let dir = Filename.temp_file "mgq_script" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  write_script_files dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_script_parse () =
  let t = Script.parse script_text in
  check Alcotest.int "extent option" 64 t.Script.options.Script.extent_kb;
  check Alcotest.bool "recovery off" false t.Script.options.Script.recovery;
  check Alcotest.int "statement count" 12 (List.length t.Script.statements)

let test_script_execute () =
  with_script_dir (fun dir ->
      let t = Script.parse script_text in
      let report = Script.execute ~base_dir:dir t in
      let sdb = report.Script.sdb in
      check Alcotest.(list (pair string int)) "nodes loaded"
        [ ("user", 3); ("tweet", 2) ]
        report.Script.nodes_loaded;
      check Alcotest.(list (pair string int)) "edges loaded"
        [ ("follows", 2); ("posts", 2) ]
        report.Script.edges_loaded;
      (* resolve and navigate *)
      let user_t = Sdb.find_type sdb "user" in
      let uid_a = Sdb.find_attribute sdb user_t "uid" in
      let follows_t = Sdb.find_type sdb "follows" in
      let ada = Option.get (Sdb.find_object sdb uid_a (Value.Int 1)) in
      check Alcotest.int "ada follows one" 1
        (Objects.count (Sdb.neighbors sdb ada follows_t Types.Out));
      let name_a = Sdb.find_attribute sdb user_t "name" in
      check value_testable "name loaded" (Value.Str "ada") (Sdb.get_attribute sdb ada name_a))

let test_script_errors () =
  let bad text = try ignore (Script.parse text); false with Script.Script_error _ -> true in
  check Alcotest.bool "garbage line" true (bad "frobnicate the database");
  check Alcotest.bool "bad option" true (bad "options extent_kb=banana");
  check Alcotest.bool "bad kind" true (bad "node u\nattribute u.x int shiny");
  (* execution error: loading against an unindexed key *)
  with_script_dir (fun dir ->
      let t =
        Script.parse
          {|
node user
attribute user.uid int basic
edge follows user -> user
load nodes user from users.tsv (uid, _)
load edges follows from follows.tsv keys user.uid user.uid
|}
      in
      check Alcotest.bool "unindexed key rejected" true
        (try
           ignore (Script.execute ~base_dir:dir t);
           false
         with Script.Script_error _ | Types.Schema_error _ -> true))

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let test_sdb_save_load_roundtrip () =
  let db, user_t, follows_t, uid_a, users = graph () in
  let path = Filename.temp_file "mgq_db" ".spk" in
  Sdb.save db path;
  let db2 = Sdb.load path in
  Sys.remove path;
  check Alcotest.int "nodes" (Sdb.node_count db) (Sdb.node_count db2);
  check Alcotest.int "edges" (Sdb.edge_count db) (Sdb.edge_count db2);
  check Alcotest.(option int) "index works" (Some users.(2))
    (Sdb.find_object db2 uid_a (Value.Int 2));
  check Alcotest.(list int) "neighbors"
    (List.sort compare (Objects.to_list (Sdb.neighbors db users.(0) follows_t Types.Out)))
    (List.sort compare (Objects.to_list (Sdb.neighbors db2 users.(0) follows_t Types.Out)));
  (* still writable *)
  let n = Sdb.new_node db2 user_t in
  Sdb.set_attribute db2 n uid_a (Value.Int 99);
  check Alcotest.(option int) "writable + indexed" (Some n)
    (Sdb.find_object db2 uid_a (Value.Int 99))

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "objects",
      [
        Alcotest.test_case "algebra" `Quick test_objects_algebra;
        Alcotest.test_case "sample" `Quick test_objects_sample;
      ] );
    ( "schema",
      [
        Alcotest.test_case "basics" `Quick test_schema_basics;
        Alcotest.test_case "duplicates rejected" `Quick test_schema_duplicate_rejected;
        Alcotest.test_case "kind mismatch rejected" `Quick test_wrong_kind_rejected;
      ] );
    ( "attributes",
      [
        Alcotest.test_case "roundtrip" `Quick test_attribute_roundtrip;
        Alcotest.test_case "type enforced" `Quick test_attribute_type_enforced;
        Alcotest.test_case "wrong owner" `Quick test_attribute_wrong_owner;
        Alcotest.test_case "unique enforced" `Quick test_unique_attribute_enforced;
        Alcotest.test_case "find_object/select" `Quick test_find_object_and_select;
        Alcotest.test_case "scan on basic attr" `Quick test_select_scan_basic_attr;
        Alcotest.test_case "index tracks updates" `Quick test_index_updates_on_change;
      ] );
    ( "navigation",
      [
        Alcotest.test_case "neighbors by direction" `Quick test_neighbors_directions;
        Alcotest.test_case "neighbors unique" `Quick test_neighbors_unique_on_parallel_edges;
        Alcotest.test_case "explode and peer" `Quick test_explode_and_peer;
        Alcotest.test_case "degree" `Quick test_degree;
        Alcotest.test_case "materialized agrees" `Quick test_materialized_neighbors_agree;
        Alcotest.test_case "counts" `Quick test_counts;
        Alcotest.test_case "cost accounting" `Quick test_navigation_charges_cost;
      ] );
    ( "traversal",
      [
        Alcotest.test_case "bfs" `Quick test_traversal_bfs;
        Alcotest.test_case "dfs coverage" `Quick test_traversal_dfs;
        Alcotest.test_case "requires expander" `Quick test_traversal_requires_expander;
        Alcotest.test_case "context" `Quick test_context_expansion;
      ] );
    ( "shortest-path",
      [
        Alcotest.test_case "basic" `Quick test_shortest_path_basic;
        Alcotest.test_case "undirected" `Quick test_shortest_path_undirected;
        Alcotest.test_case "bounded" `Quick test_shortest_path_bounded;
        Alcotest.test_case "same node" `Quick test_shortest_path_same_node;
      ] );
    ( "scripts",
      [
        Alcotest.test_case "parse" `Quick test_script_parse;
        Alcotest.test_case "execute" `Quick test_script_execute;
        Alcotest.test_case "errors" `Quick test_script_errors;
      ] );
    ( "persistence",
      [ Alcotest.test_case "save/load roundtrip" `Quick test_sdb_save_load_roundtrip ] );
    ( "cross-engine",
      [ qtest prop_engines_agree_on_neighbors; qtest prop_engines_agree_on_distance ] );
  ]

let () = Alcotest.run "mgq_sparks" suite
