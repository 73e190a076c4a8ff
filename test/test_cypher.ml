(* Tests for the Cypher-like query layer: lexer, parser, planner,
   executor, plan cache and PROFILE, exercised end-to-end on small
   graphs shaped like the paper's Twitter schema. *)

module Db = Mgq_neo.Db
module Cypher = Mgq_cypher.Cypher
module Parser = Mgq_cypher.Parser
module Lexer = Mgq_cypher.Lexer
module Ast = Mgq_cypher.Ast
module Plan = Mgq_cypher.Plan
module Runtime = Mgq_cypher.Runtime
module Executor = Mgq_cypher.Executor
module Value = Mgq_core.Value
module Property = Mgq_core.Property

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let props l = Property.of_list l

let value_testable =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Value.to_display v))
    (fun a b -> a = b || Value.equal a b)

let rows_testable = Alcotest.(list (list value_testable))

(* A micro Twittersphere:
   users u0..u4 (uid 0..4), tweets, hashtags.
     follows: 0->1, 0->2, 1->2, 2->3, 3->0, 4->0
     u1 posts t10 "hello #ocaml" tagging #ocaml, mentioning u0
     u2 posts t20 tagging #ocaml #db, mentioning u0 and u3
     u3 posts t30 mentioning u0
     u4 posts t40 tagging #db
*)
let twitter_db () =
  let db = Db.create () in
  let user i =
    Db.create_node db ~label:"user"
      (props [ ("uid", Value.Int i); ("name", Value.Str (Printf.sprintf "user%d" i)) ])
  in
  let users = Array.init 5 user in
  let follows = [ (0, 1); (0, 2); (1, 2); (2, 3); (3, 0); (4, 0) ] in
  List.iter
    (fun (a, b) ->
      ignore (Db.create_edge db ~etype:"follows" ~src:users.(a) ~dst:users.(b) Property.empty))
    follows;
  let tweet owner id text =
    let t =
      Db.create_node db ~label:"tweet"
        (props [ ("tid", Value.Int id); ("text", Value.Str text) ])
    in
    ignore (Db.create_edge db ~etype:"posts" ~src:users.(owner) ~dst:t Property.empty);
    t
  in
  let hashtag tag =
    Db.create_node db ~label:"hashtag" (props [ ("tag", Value.Str tag) ])
  in
  let h_ocaml = hashtag "ocaml" and h_db = hashtag "db" in
  let tag t h = ignore (Db.create_edge db ~etype:"tags" ~src:t ~dst:h Property.empty) in
  let mention t u = ignore (Db.create_edge db ~etype:"mentions" ~src:t ~dst:users.(u) Property.empty) in
  let t10 = tweet 1 10 "hello #ocaml" in
  tag t10 h_ocaml;
  mention t10 0;
  let t20 = tweet 2 20 "graphs #ocaml #db" in
  tag t20 h_ocaml;
  tag t20 h_db;
  mention t20 0;
  mention t20 3;
  let t30 = tweet 3 30 "ping" in
  mention t30 0;
  let t40 = tweet 4 40 "#db again" in
  tag t40 h_db;
  Db.create_index db ~label:"user" ~property:"uid";
  Db.create_index db ~label:"hashtag" ~property:"tag";
  (db, users)

let session () =
  let db, users = twitter_db () in
  (Cypher.create db, users)

let run ?params s q = Cypher.value_rows (Cypher.run ?params s q)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "MATCH (u:user {uid: $uid})-[:posts]->(t) RETURN t.text" in
  check Alcotest.bool "starts with MATCH" true (toks.(0) = Lexer.MATCH);
  check Alcotest.bool "has param" true
    (Array.exists (fun t -> t = Lexer.PARAM "uid") toks);
  check Alcotest.bool "has arrow" true
    (Array.exists (fun t -> t = Lexer.ARROW_RIGHT) toks)

let test_lexer_arrow_vs_comparison () =
  let toks = Lexer.tokenize "u.x < -1" in
  check Alcotest.bool "LT kept" true (Array.exists (fun t -> t = Lexer.LT) toks);
  check Alcotest.bool "no left arrow" false
    (Array.exists (fun t -> t = Lexer.ARROW_LEFT) toks);
  let toks2 = Lexer.tokenize "(a)<-[:f]-(b)" in
  check Alcotest.bool "left arrow in pattern" true
    (Array.exists (fun t -> t = Lexer.ARROW_LEFT) toks2)

let test_lexer_range () =
  let toks = Lexer.tokenize "*2..3" in
  check Alcotest.bool "star int dotdot int" true
    (toks.(0) = Lexer.STAR && toks.(1) = Lexer.INT 2 && toks.(2) = Lexer.DOTDOT
   && toks.(3) = Lexer.INT 3)

let test_lexer_strings_and_numbers () =
  let toks = Lexer.tokenize "'it\\'s' \"two\" 3.5 42" in
  check Alcotest.bool "escaped quote" true (toks.(0) = Lexer.STRING "it's");
  check Alcotest.bool "double quoted" true (toks.(1) = Lexer.STRING "two");
  check Alcotest.bool "float" true (toks.(2) = Lexer.FLOAT 3.5);
  check Alcotest.bool "int" true (toks.(3) = Lexer.INT 42)

let test_lexer_errors () =
  check Alcotest.bool "unterminated string" true
    (try
       ignore (Lexer.tokenize "'oops");
       false
     with Lexer.Lex_error _ -> true);
  check Alcotest.bool "bad char" true
    (try
       ignore (Lexer.tokenize "a ^ b");
       false
     with Lexer.Lex_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_simple_match () =
  let q = Parser.parse "MATCH (u:user {uid: 531})-[:posts]->(t:tweet) RETURN t.text" in
  check Alcotest.bool "not profile" false q.Ast.profile;
  match q.Ast.clauses with
  | [ Ast.Match { pattern = [ p ]; where = None; _ }; Ast.Return proj ] ->
    check Alcotest.(option string) "start var" (Some "u") p.Ast.pstart.Ast.nvar;
    check Alcotest.(option string) "start label" (Some "user") p.Ast.pstart.Ast.nlabel;
    check Alcotest.int "one step" 1 (List.length p.Ast.psteps);
    let rel, node = List.hd p.Ast.psteps in
    check Alcotest.(list string) "rel type" [ "posts" ] rel.Ast.rtypes;
    check Alcotest.bool "outgoing" true (rel.Ast.rdir = Mgq_core.Types.Out);
    check Alcotest.(option string) "end label" (Some "tweet") node.Ast.nlabel;
    check Alcotest.int "one return item" 1 (List.length proj.Ast.items)
  | _ -> Alcotest.fail "unexpected clause structure"

let test_parse_var_length_and_direction () =
  let q = Parser.parse "MATCH (a)<-[:follows*2..3]-(b) RETURN b" in
  match q.Ast.clauses with
  | [ Ast.Match { pattern = [ p ]; _ }; _ ] ->
    let rel, _ = List.hd p.Ast.psteps in
    check Alcotest.bool "incoming" true (rel.Ast.rdir = Mgq_core.Types.In);
    check Alcotest.int "min" 2 rel.Ast.rmin;
    check Alcotest.int "max" 3 rel.Ast.rmax
  | _ -> Alcotest.fail "unexpected structure"

let test_parse_shortest_path () =
  let q =
    Parser.parse
      "MATCH p = shortestPath((a:user {uid:$u1})-[:follows*..3]-(b:user {uid:$u2})) RETURN length(p)"
  in
  match q.Ast.clauses with
  | [ Ast.Match { pattern = [ p ]; _ }; _ ] ->
    check Alcotest.bool "shortest" true p.Ast.shortest;
    check Alcotest.(option string) "path var" (Some "p") p.Ast.pvar;
    let rel, _ = List.hd p.Ast.psteps in
    check Alcotest.int "max hops" 3 rel.Ast.rmax;
    check Alcotest.bool "undirected" true (rel.Ast.rdir = Mgq_core.Types.Both)
  | _ -> Alcotest.fail "unexpected structure"

let test_parse_where_pattern_predicate () =
  let q = Parser.parse "MATCH (a)-[:f]->(b) WHERE NOT (a)-[:g]->(b) RETURN b" in
  match q.Ast.clauses with
  | [ Ast.Match { where = Some (Ast.Not (Ast.Pattern_pred _)); _ }; _ ] -> ()
  | _ -> Alcotest.fail "pattern predicate not recognised"

let test_parse_aggregation_order_limit () =
  let q =
    Parser.parse
      "MATCH (a)-[:m]->(b) RETURN b.uid AS uid, count(*) AS c ORDER BY c DESC LIMIT 5"
  in
  match q.Ast.clauses with
  | [ _; Ast.Return proj ] ->
    check Alcotest.int "two items" 2 (List.length proj.Ast.items);
    check Alcotest.bool "has count(*)" true
      (List.exists (fun (e, _) -> e = Ast.Agg (Ast.Count_star, None)) proj.Ast.items);
    check Alcotest.int "order by" 1 (List.length proj.Ast.order_by);
    check Alcotest.bool "desc" true (snd (List.hd proj.Ast.order_by) = `Desc);
    check Alcotest.bool "limit" true (proj.Ast.limit <> None)
  | _ -> Alcotest.fail "unexpected structure"

let test_parse_with_collect_in () =
  let q =
    Parser.parse
      "MATCH (a)-[:f]->(x) WITH a, collect(x) AS friends MATCH (a)-[:f]->()-[:f]->(y) WHERE NOT y IN friends RETURN y"
  in
  check Alcotest.int "four clauses" 4 (List.length q.Ast.clauses)

let test_parse_errors () =
  let bad q = try ignore (Parser.parse q); false with Parser.Parse_error _ -> true in
  check Alcotest.bool "missing return" true (bad "MATCH (a)");
  check Alcotest.bool "unbalanced" true (bad "MATCH (a RETURN a");
  check Alcotest.bool "empty" true (bad "")

let test_parse_default_aliases () =
  let q = Parser.parse "MATCH (u) RETURN u.uid, count(*)" in
  match q.Ast.clauses with
  | [ _; Ast.Return proj ] ->
    check Alcotest.(list string) "aliases" [ "u.uid"; "count(*)" ]
      (List.map snd proj.Ast.items)
  | _ -> Alcotest.fail "unexpected structure"

(* Round-trip-ish property: expr_to_string of a parsed RETURN expression
   re-parses to the same AST. *)
let expr_gen =
  let open QCheck.Gen in
  let base =
    oneof
      [
        (* Non-negative: a negative literal prints as "-5", which
           re-parses as the equivalent but structurally different
           unary-minus desugaring 0 - 5. *)
        map (fun i -> Ast.Lit (Value.Int i)) (int_range 0 50);
        map (fun s -> Ast.Var ("v" ^ string_of_int s)) (int_range 0 5);
        map (fun s -> Ast.Param ("p" ^ string_of_int s)) (int_range 0 5);
      ]
  in
  let rec expr n =
    if n = 0 then base
    else
      frequency
        [
          (2, base);
          (1, map2 (fun a b -> Ast.Cmp (Ast.Lt, a, b)) (expr (n - 1)) (expr (n - 1)));
          (1, map2 (fun a b -> Ast.And (a, b)) (expr (n - 1)) (expr (n - 1)));
          (1, map (fun a -> Ast.Not a) (expr (n - 1)));
          (1, map2 (fun a b -> Ast.Arith (Ast.Add, a, b)) (expr (n - 1)) (expr (n - 1)));
        ]
  in
  expr 3

let prop_expr_print_parse_roundtrip =
  QCheck.Test.make ~name:"expr_to_string re-parses equivalently" ~count:200
    (QCheck.make expr_gen) (fun e ->
      let text = "MATCH (x) RETURN " ^ Parser.expr_to_string e ^ " AS out" in
      match (Parser.parse text).Ast.clauses with
      | [ _; Ast.Return proj ] -> (
        match proj.Ast.items with
        | [ (parsed, _) ] ->
          (* Compare printed forms: parenthesisation may differ
             structurally for associative chains. *)
          Parser.expr_to_string parsed = Parser.expr_to_string e
        | _ -> false)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)
(* ------------------------------------------------------------------ *)

let test_plan_uses_index_seek () =
  let s, _ = session () in
  let text = Cypher.explain s "MATCH (u:user {uid: 2}) RETURN u.uid" in
  check Alcotest.bool "index seek chosen" true
    (String.length text >= 13 && String.sub text 0 13 = "NodeIndexSeek")

let test_plan_label_scan_without_index () =
  let s, _ = session () in
  let text = Cypher.explain s "MATCH (u:user) WHERE u.name = 'user1' RETURN u.uid" in
  check Alcotest.bool "label scan chosen" true
    (String.length text >= 15 && String.sub text 0 15 = "NodeByLabelScan")

let test_plan_orients_to_indexed_end () =
  let s, _ = session () in
  (* The anchored end is on the right; the planner should flip. *)
  let text = Cypher.explain s "MATCH (t:tweet)<-[:posts]-(u:user {uid: 1}) RETURN t.tid" in
  check Alcotest.bool "starts from indexed user" true
    (String.length text >= 13 && String.sub text 0 13 = "NodeIndexSeek")

(* ------------------------------------------------------------------ *)
(* End-to-end queries (the paper's workload shapes)                    *)
(* ------------------------------------------------------------------ *)

let test_q1_select_by_property () =
  let s, _ = session () in
  let rows =
    run s "MATCH (u:user) WHERE u.uid >= 3 RETURN u.uid ORDER BY u.uid"
  in
  check rows_testable "uids >= 3" [ [ Value.Int 3 ]; [ Value.Int 4 ] ] rows

let test_q2_1_adjacency () =
  let s, _ = session () in
  let rows =
    run s ~params:[ ("uid", Value.Int 0) ]
      "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid ORDER BY f.uid"
  in
  check rows_testable "followees of u0" [ [ Value.Int 1 ]; [ Value.Int 2 ] ] rows

let test_q2_2_two_step () =
  let s, _ = session () in
  let rows =
    run s ~params:[ ("uid", Value.Int 0) ]
      "MATCH (a:user {uid: $uid})-[:follows]->(:user)-[:posts]->(t:tweet) RETURN t.tid ORDER BY t.tid"
  in
  check rows_testable "tweets of followees" [ [ Value.Int 10 ]; [ Value.Int 20 ] ] rows

let test_q2_3_three_step_distinct () =
  let s, _ = session () in
  let rows =
    run s ~params:[ ("uid", Value.Int 0) ]
      "MATCH (a:user {uid: $uid})-[:follows]->(:user)-[:posts]->(:tweet)-[:tags]->(h:hashtag) RETURN DISTINCT h.tag ORDER BY h.tag"
  in
  check rows_testable "hashtags used by followees"
    [ [ Value.Str "db" ]; [ Value.Str "ocaml" ] ]
    rows

let test_q3_1_co_mentions () =
  let s, _ = session () in
  (* Users most mentioned together with u0: u3 (via t20). *)
  let rows =
    run s ~params:[ ("uid", Value.Int 0); ("n", Value.Int 5) ]
      "MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)-[:mentions]->(o:user) WHERE o.uid <> $uid RETURN o.uid AS uid, count(t) AS c ORDER BY c DESC LIMIT $n"
  in
  check rows_testable "co-mentioned" [ [ Value.Int 3; Value.Int 1 ] ] rows

let test_q3_2_co_occurring_hashtags () =
  let s, _ = session () in
  let rows =
    run s ~params:[ ("h", Value.Str "ocaml"); ("n", Value.Int 5) ]
      "MATCH (h:hashtag {tag: $h})<-[:tags]-(t:tweet)-[:tags]->(o:hashtag) RETURN o.tag AS tag, count(t) AS c ORDER BY c DESC LIMIT $n"
  in
  check rows_testable "co-tags" [ [ Value.Str "db"; Value.Int 1 ] ] rows

let test_q4_1_recommendation () =
  let s, _ = session () in
  (* 2-step followees of u0 not already followed: u0 follows u1,u2;
     u1->u2 (already followed), u2->u3 (new). Exclude a itself. *)
  let rows =
    run s ~params:[ ("uid", Value.Int 0); ("n", Value.Int 5) ]
      "MATCH (a:user {uid: $uid})-[:follows]->(:user)-[:follows]->(fof:user) WHERE fof.uid <> $uid AND NOT (a)-[:follows]->(fof) RETURN fof.uid AS uid, count(*) AS c ORDER BY c DESC LIMIT $n"
  in
  check rows_testable "recommended" [ [ Value.Int 3; Value.Int 1 ] ] rows

let test_q4_variant_b_with_collect () =
  let s, _ = session () in
  let rows =
    run s ~params:[ ("uid", Value.Int 0) ]
      "MATCH (a:user {uid: $uid})-[:follows]->(f:user) WITH a, collect(f) AS friends MATCH (a)-[:follows]->(:user)-[:follows]->(fof:user) WHERE NOT fof IN friends AND fof.uid <> $uid RETURN fof.uid AS uid, count(*) AS c ORDER BY c DESC"
  in
  check rows_testable "variant (b) agrees" [ [ Value.Int 3; Value.Int 1 ] ] rows

let test_q4_variant_a_var_length () =
  let s, _ = session () in
  let rows =
    run s ~params:[ ("uid", Value.Int 0) ]
      "MATCH (a:user {uid: $uid})-[:follows*2..2]->(fof:user) WHERE fof.uid <> $uid AND NOT (a)-[:follows]->(fof) RETURN fof.uid AS uid, count(*) AS c ORDER BY c DESC"
  in
  check rows_testable "variant (a) agrees" [ [ Value.Int 3; Value.Int 1 ] ] rows

let test_q5_1_current_influence () =
  let s, _ = session () in
  (* Users who mention u0 and follow u0: u3 (posts t30, follows u0),
     u4 mentions nobody... u4 posts t40 (no mention). u1 posts t10
     mentioning u0 but u1 does not follow u0. u2 mentions u0 via t20,
     does not follow u0. u3 -> yes. *)
  let rows =
    run s ~params:[ ("uid", Value.Int 0); ("n", Value.Int 5) ]
      "MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)<-[:posts]-(u:user) WHERE (u)-[:follows]->(a) RETURN u.uid AS uid, count(t) AS c ORDER BY c DESC LIMIT $n"
  in
  check rows_testable "current influence" [ [ Value.Int 3; Value.Int 1 ] ] rows

let test_q5_2_potential_influence () =
  let s, _ = session () in
  let rows =
    run s ~params:[ ("uid", Value.Int 0); ("n", Value.Int 5) ]
      "MATCH (a:user {uid: $uid})<-[:mentions]-(t:tweet)<-[:posts]-(u:user) WHERE NOT (u)-[:follows]->(a) AND u.uid <> $uid RETURN u.uid AS uid, count(t) AS c ORDER BY c DESC LIMIT $n"
  in
  check rows_testable "potential influence"
    [ [ Value.Int 1; Value.Int 1 ]; [ Value.Int 2; Value.Int 1 ] ]
    rows

let test_q6_1_shortest_path () =
  let s, _ = session () in
  let rows =
    run s ~params:[ ("u1", Value.Int 1); ("u2", Value.Int 4) ]
      "MATCH p = shortestPath((a:user {uid:$u1})-[:follows*..3]-(b:user {uid:$u2})) RETURN length(p)"
  in
  (* Undirected: u1-u0 (u0 follows u1), u0-u4 (u4 follows u0): length 2. *)
  check rows_testable "path length" [ [ Value.Int 2 ] ] rows

let test_q6_directed_shortest_path () =
  let s, _ = session () in
  let rows =
    run s ~params:[ ("u1", Value.Int 1); ("u2", Value.Int 0) ]
      "MATCH p = shortestPath((a:user {uid:$u1})-[:follows*..4]->(b:user {uid:$u2})) RETURN length(p)"
  in
  (* Directed: u1 -> u2 -> u3 -> u0. *)
  check rows_testable "directed length" [ [ Value.Int 3 ] ] rows

let test_shortest_path_no_route_yields_no_row () =
  let s, _ = session () in
  let db = Cypher.db s in
  ignore (Db.create_node db ~label:"user" (props [ ("uid", Value.Int 99) ]));
  let rows =
    run s ~params:[ ("u1", Value.Int 0); ("u2", Value.Int 99) ]
      "MATCH p = shortestPath((a:user {uid:$u1})-[:follows*..3]-(b:user {uid:$u2})) RETURN length(p)"
  in
  check rows_testable "no row" [] rows

(* ------------------------------------------------------------------ *)
(* Language features                                                   *)
(* ------------------------------------------------------------------ *)

let test_count_distinct () =
  let s, _ = session () in
  let rows =
    run s
      "MATCH (t:tweet)-[:tags]->(h:hashtag) RETURN count(DISTINCT h.tag) AS kinds"
  in
  check rows_testable "two distinct tags" [ [ Value.Int 2 ] ] rows

let test_sum_min_max () =
  let s, _ = session () in
  let rows =
    run s "MATCH (u:user) RETURN sum(u.uid) AS s, min(u.uid) AS lo, max(u.uid) AS hi"
  in
  check rows_testable "aggregates" [ [ Value.Int 10; Value.Int 0; Value.Int 4 ] ] rows

let test_skip_limit () =
  let s, _ = session () in
  let rows = run s "MATCH (u:user) RETURN u.uid ORDER BY u.uid SKIP 1 LIMIT 2" in
  check rows_testable "window" [ [ Value.Int 1 ]; [ Value.Int 2 ] ] rows

let test_skip_limit_parameterised () =
  let s, _ = session () in
  let rows =
    run s
      ~params:[ ("s", Value.Int 2); ("l", Value.Int 2) ]
      "MATCH (u:user) RETURN u.uid ORDER BY u.uid SKIP $s LIMIT $l"
  in
  check rows_testable "param window" [ [ Value.Int 2 ]; [ Value.Int 3 ] ] rows

let test_profile_on_write () =
  let s, _ = session () in
  let r = Cypher.run s "PROFILE CREATE (n:user {uid: 700})" in
  match r.Cypher.profile with
  | Some entries ->
    check Alcotest.bool "has Create operator" true
      (List.exists (fun e -> e.Executor.name = "Create") entries)
  | None -> Alcotest.fail "expected profile"

let test_arithmetic_and_bool () =
  let s, _ = session () in
  let rows =
    run s "MATCH (u:user {uid: 3}) RETURN u.uid * 2 + 1 AS a, u.uid > 2 AND NOT u.uid = 4 AS b"
  in
  check rows_testable "expression evaluation"
    [ [ Value.Int 7; Value.Bool true ] ]
    rows

let test_in_list_literal () =
  let s, _ = session () in
  let rows =
    run s "MATCH (u:user) WHERE u.uid IN [1, 3] RETURN u.uid ORDER BY u.uid"
  in
  check rows_testable "IN literal list" [ [ Value.Int 1 ]; [ Value.Int 3 ] ] rows

let test_null_semantics () =
  let s, _ = session () in
  (* no user has property "bio": comparisons with null don't match *)
  let rows = run s "MATCH (u:user) WHERE u.bio = 'x' RETURN u.uid" in
  check rows_testable "null never equal" [] rows;
  let rows2 = run s "MATCH (u:user) WHERE NOT u.bio = 'x' RETURN count(*) AS c" in
  check rows_testable "NOT null-compare is true under 2-valued logic"
    [ [ Value.Int 5 ] ] rows2

let test_aggregate_empty_input () =
  let s, _ = session () in
  let rows = run s "MATCH (u:user) WHERE u.uid > 100 RETURN count(*) AS c" in
  check rows_testable "count over empty" [ [ Value.Int 0 ] ] rows

let test_unknown_param_errors () =
  let s, _ = session () in
  check Alcotest.bool "missing param" true
    (try
       ignore (run s "MATCH (u:user {uid: $nope}) RETURN u.uid");
       false
     with Cypher.Query_error _ -> true)

let test_multi_pattern_cartesian () =
  let s, _ = session () in
  let rows =
    run s
      "MATCH (a:user {uid: 0}), (b:user {uid: 1}) RETURN a.uid, b.uid"
  in
  check rows_testable "cartesian of two seeks" [ [ Value.Int 0; Value.Int 1 ] ] rows

let test_both_direction_expand () =
  let s, _ = session () in
  let rows =
    run s ~params:[ ("uid", Value.Int 0) ]
      "MATCH (a:user {uid: $uid})-[:follows]-(x:user) RETURN x.uid ORDER BY x.uid"
  in
  (* u0 follows 1,2; followed by 3,4. *)
  check rows_testable "undirected neighbours"
    [ [ Value.Int 1 ]; [ Value.Int 2 ]; [ Value.Int 3 ]; [ Value.Int 4 ] ]
    rows

(* ------------------------------------------------------------------ *)
(* Pattern fuzzing: random linear MATCH patterns through the whole
   stack (parse -> plan -> execute) against a brute-force matcher.    *)
(* ------------------------------------------------------------------ *)

module Rng = Mgq_util.Rng

type fuzz_graph = {
  fdb : Db.t;
  fnodes : (int * string) array; (* node id, label *)
  fedges : (int * string * int) array; (* src, etype, dst *)
}

let fuzz_graph seed n_nodes n_edges =
  let rng = Rng.create seed in
  let labels = [| "user"; "tweet" |] in
  let etypes = [| "follows"; "posts" |] in
  let fdb = Db.create () in
  let fnodes =
    Array.init n_nodes (fun i ->
        let label = labels.(Rng.int rng 2) in
        let node = Db.create_node fdb ~label (props [ ("k", Value.Int i) ]) in
        (node, label))
  in
  let fedges =
    Array.init n_edges (fun _ ->
        let a, _ = fnodes.(Rng.int rng n_nodes) in
        let b, _ = fnodes.(Rng.int rng n_nodes) in
        let etype = etypes.(Rng.int rng 2) in
        ignore (Db.create_edge fdb ~etype ~src:a ~dst:b Property.empty);
        (a, etype, b))
  in
  Db.create_index fdb ~label:"user" ~property:"k";
  { fdb; fnodes; fedges }

(* A random linear pattern: (x0 lbl?) -[t? dir]- (x1 lbl?) [- ... ] *)
type fuzz_step = { fs_type : string option; fs_out : bool; fs_label : string option }

let gen_pattern rng =
  let opt_label () =
    match Rng.int rng 3 with 0 -> Some "user" | 1 -> Some "tweet" | _ -> None
  in
  let opt_type () =
    match Rng.int rng 3 with 0 -> Some "follows" | 1 -> Some "posts" | _ -> None
  in
  let start_label = opt_label () in
  let steps =
    List.init (1 + Rng.int rng 2) (fun _ ->
        { fs_type = opt_type (); fs_out = Rng.bool rng; fs_label = opt_label () })
  in
  (start_label, steps)

let pattern_text (start_label, steps) =
  let lbl = function Some l -> ":" ^ l | None -> "" in
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "MATCH (x0%s)" (lbl start_label));
  List.iteri
    (fun i s ->
      let rel = match s.fs_type with Some t -> ":" ^ t | None -> "" in
      if s.fs_out then Buffer.add_string buf (Printf.sprintf "-[%s]->" rel)
      else Buffer.add_string buf (Printf.sprintf "<-[%s]-" rel);
      Buffer.add_string buf (Printf.sprintf "(x%d%s)" (i + 1) (lbl s.fs_label)))
    steps;
  Buffer.add_string buf " RETURN ";
  Buffer.add_string buf
    (String.concat ", "
       (List.mapi (fun i _ -> Printf.sprintf "id(x%d)" i) (() :: List.map (fun _ -> ()) steps)));
  Buffer.contents buf

(* Brute-force: enumerate all edge walks with relationship
   uniqueness, checking labels. *)
let brute_force g (start_label, steps) =
  let label_of node = snd (Array.to_list g.fnodes |> List.find (fun (n, _) -> n = node)) in
  let label_ok node = function None -> true | Some l -> label_of node = l in
  let rec walk bound used node steps =
    match steps with
    | [] -> [ List.rev bound ]
    | s :: rest ->
      Array.to_list g.fedges
      |> List.concat_map (fun (src, etype, dst) ->
             let matches_type = match s.fs_type with None -> true | Some t -> t = etype in
             let endpoints =
               if s.fs_out then if src = node then [ dst ] else []
               else if dst = node then [ src ]
               else []
             in
             let edge_key = (src, etype, dst) in
             if matches_type && not (List.mem edge_key used) then
               List.concat_map
                 (fun next ->
                   if label_ok next s.fs_label then
                     walk (next :: bound) (edge_key :: used) next rest
                   else [])
                 endpoints
             else [])
  in
  Array.to_list g.fnodes
  |> List.concat_map (fun (node, _) ->
         if label_ok node start_label then walk [ node ] [] node steps else [])

(* NB: brute_force treats parallel duplicate edges as one edge key, so
   keep generated edges unique. *)
let prop_patterns_match_brute_force =
  QCheck.Test.make ~name:"random MATCH patterns = brute force" ~count:60
    QCheck.(pair small_int small_int)
    (fun (graph_seed, pattern_seed) ->
      let g = fuzz_graph graph_seed 8 10 in
      (* dedup edges for the brute-force edge-key model *)
      let unique_edges =
        List.sort_uniq compare (Array.to_list g.fedges) |> Array.of_list
      in
      if Array.length unique_edges <> Array.length g.fedges then true (* skip dup cases *)
      else begin
        let rng = Rng.create (pattern_seed + 1000) in
        let pattern = gen_pattern rng in
        let text = pattern_text pattern in
        let session = Cypher.create g.fdb in
        let rows =
          (Cypher.run session text).Cypher.rows
          |> List.map (List.map (function
               | Runtime.Ival (Value.Int i) -> i
               | _ -> -1))
          |> List.sort compare
        in
        let expected = List.sort compare (brute_force g pattern) in
        if rows <> expected then begin
          Printf.printf "MISMATCH on %s\n  got %d rows, expected %d\n" text
            (List.length rows) (List.length expected);
          false
        end
        else true
      end)

(* ------------------------------------------------------------------ *)
(* Plan cache and PROFILE                                              *)
(* ------------------------------------------------------------------ *)

let test_plan_cache_hit_on_params () =
  let s, _ = session () in
  let q = "MATCH (u:user {uid: $uid}) RETURN u.uid" in
  let r1 = Cypher.run s ~params:[ ("uid", Value.Int 0) ] q in
  let r2 = Cypher.run s ~params:[ ("uid", Value.Int 1) ] q in
  check Alcotest.bool "first compiles" true r1.Cypher.stats.Cypher.compiled;
  check Alcotest.bool "second cached" false r2.Cypher.stats.Cypher.compiled;
  check Alcotest.int "one compilation" 1 (Cypher.compilations s)

let test_plan_cache_miss_on_literals () =
  let s, _ = session () in
  ignore (Cypher.run s "MATCH (u:user {uid: 0}) RETURN u.uid");
  ignore (Cypher.run s "MATCH (u:user {uid: 1}) RETURN u.uid");
  check Alcotest.int "two compilations" 2 (Cypher.compilations s)

let test_profile_reports_operators () =
  let s, _ = session () in
  let r =
    Cypher.run s ~params:[ ("uid", Value.Int 0) ]
      "PROFILE MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid"
  in
  match r.Cypher.profile with
  | None -> Alcotest.fail "expected profile"
  | Some entries ->
    check Alcotest.bool "has index seek" true
      (List.exists (fun e -> e.Executor.name = "NodeIndexSeek") entries);
    check Alcotest.bool "has expand" true
      (List.exists (fun e -> e.Executor.name = "Expand(All)") entries);
    check Alcotest.bool "counts hits" true (Executor.total_db_hits entries > 0)

let test_profile_absent_without_keyword () =
  let s, _ = session () in
  let r = Cypher.run s "MATCH (u:user) RETURN count(*) AS c" in
  check Alcotest.bool "no profile" true (r.Cypher.profile = None)

let test_explain_does_not_execute () =
  let s, _ = session () in
  let text = Cypher.explain s "MATCH (u:user) RETURN u.uid" in
  check Alcotest.bool "plan text non-empty" true (String.length text > 0)

(* ------------------------------------------------------------------ *)
(* Write clauses: CREATE / SET / REMOVE / DELETE                       *)
(* ------------------------------------------------------------------ *)

let test_create_node () =
  let s, _ = session () in
  let r = Cypher.run s "CREATE (n:user {uid: 100, name: 'newbie'})" in
  check Alcotest.int "one node created" 1 r.Cypher.updates.Executor.nodes_created;
  check Alcotest.int "two props set" 2 r.Cypher.updates.Executor.properties_set;
  let rows = run s "MATCH (u:user {uid: 100}) RETURN u.name" in
  check rows_testable "visible afterwards" [ [ Value.Str "newbie" ] ] rows

let test_create_uses_index () =
  let s, _ = session () in
  ignore (Cypher.run s "CREATE (n:user {uid: 101})");
  (* The uid index must have been maintained: the seek plan finds it. *)
  let rows = run s "MATCH (u:user {uid: 101}) RETURN u.uid" in
  check rows_testable "indexed" [ [ Value.Int 101 ] ] rows

let test_create_relationship_pattern () =
  let s, _ = session () in
  let r =
    Cypher.run s "CREATE (a:user {uid: 200})-[:follows]->(b:user {uid: 201})"
  in
  check Alcotest.int "two nodes" 2 r.Cypher.updates.Executor.nodes_created;
  check Alcotest.int "one edge" 1 r.Cypher.updates.Executor.edges_created;
  let rows =
    run s "MATCH (a:user {uid: 200})-[:follows]->(b:user) RETURN b.uid"
  in
  check rows_testable "edge traversable" [ [ Value.Int 201 ] ] rows

let test_match_create_per_row () =
  let s, _ = session () in
  (* Give every existing user a badge node. *)
  let r = Cypher.run s "MATCH (u:user) CREATE (u)-[:has]->(:badge {kind: 'og'})" in
  check Alcotest.int "5 badges" 5 r.Cypher.updates.Executor.nodes_created;
  check Alcotest.int "5 edges" 5 r.Cypher.updates.Executor.edges_created;
  let rows = run s "MATCH (:user)-[:has]->(b:badge) RETURN count(*) AS c" in
  check rows_testable "all connected" [ [ Value.Int 5 ] ] rows

(* The label scan streams into its consumer, but a writer reads its
   whole input first: creations of the scanned label are not scanned,
   and a delete removes every node the scan found. *)
let test_scan_misses_own_writes () =
  let s, _ = session () in
  (* The budget turns a scan that chases its own creations into a
     failure rather than a hang. *)
  let budget = Mgq_util.Budget.create ~max_hits:10_000 () in
  let r = Cypher.run ~budget s "MATCH (u:user) CREATE (:user {uid: 900})" in
  check Alcotest.int "one per user before the statement" 5 r.Cypher.updates.Executor.nodes_created;
  check rows_testable "ten users" [ [ Value.Int 10 ] ] (run s "MATCH (u:user) RETURN count(u)");
  let r = Cypher.run s "MATCH (u:user) DETACH DELETE u" in
  check Alcotest.int "every user deleted" 10 r.Cypher.updates.Executor.nodes_deleted;
  check rows_testable "none left" [ [ Value.Int 0 ] ] (run s "MATCH (u:user) RETURN count(u)")

let test_create_then_return () =
  let s, _ = session () in
  let rows = run s "CREATE (n:user {uid: 300}) RETURN n.uid" in
  check rows_testable "returns created" [ [ Value.Int 300 ] ] rows

let test_set_property () =
  let s, _ = session () in
  let r =
    Cypher.run s ~params:[ ("uid", Value.Int 2) ]
      "MATCH (u:user {uid: $uid}) SET u.verified = true, u.name = 'renamed'"
  in
  check Alcotest.int "two sets" 2 r.Cypher.updates.Executor.properties_set;
  let rows =
    run s ~params:[ ("uid", Value.Int 2) ]
      "MATCH (u:user {uid: $uid}) RETURN u.name, u.verified"
  in
  check rows_testable "updated" [ [ Value.Str "renamed"; Value.Bool true ] ] rows

let test_set_maintains_index () =
  let s, _ = session () in
  ignore (Cypher.run s "MATCH (u:user {uid: 3}) SET u.uid = 333");
  check rows_testable "old uid gone" [] (run s "MATCH (u:user {uid: 3}) RETURN u.uid");
  check rows_testable "new uid found" [ [ Value.Int 333 ] ]
    (run s "MATCH (u:user {uid: 333}) RETURN u.uid")

let test_remove_property () =
  let s, _ = session () in
  ignore (Cypher.run s "MATCH (u:user {uid: 1}) REMOVE u.name");
  let rows = run s "MATCH (u:user {uid: 1}) RETURN u.name" in
  check rows_testable "null after remove" [ [ Value.Null ] ] rows

let test_delete_relationship () =
  let s, _ = session () in
  let r =
    Cypher.run s
      "MATCH (a:user {uid: 0})-[r:follows]->(b:user {uid: 1}) DELETE r"
  in
  check Alcotest.int "one edge deleted" 1 r.Cypher.updates.Executor.edges_deleted;
  let rows =
    run s "MATCH (a:user {uid: 0})-[:follows]->(b:user) RETURN b.uid ORDER BY b.uid"
  in
  check rows_testable "only u2 left" [ [ Value.Int 2 ] ] rows

let test_delete_connected_node_fails_and_rolls_back () =
  let s, _ = session () in
  let before = Db.node_count (Cypher.db s) in
  check Alcotest.bool "connected delete refused" true
    (try
       ignore (Cypher.run s "MATCH (u:user {uid: 0}) DELETE u");
       false
     with Cypher.Query_error _ -> true);
  check Alcotest.int "nothing changed" before (Db.node_count (Cypher.db s))

let test_detach_delete () =
  let s, _ = session () in
  let db = Cypher.db s in
  let nodes_before = Db.node_count db in
  let r = Cypher.run s "MATCH (u:user {uid: 0}) DETACH DELETE u" in
  check Alcotest.int "node deleted" 1 r.Cypher.updates.Executor.nodes_deleted;
  check Alcotest.bool "edges deleted too" true (r.Cypher.updates.Executor.edges_deleted > 0);
  check Alcotest.int "count dropped" (nodes_before - 1) (Db.node_count db);
  check rows_testable "gone" [] (run s "MATCH (u:user {uid: 0}) RETURN u.uid")

let test_write_error_rolls_back_created_nodes () =
  let s, _ = session () in
  let before = Db.node_count (Cypher.db s) in
  (* The CREATE succeeds per row, then the DELETE of a connected node
     fails; the whole statement must roll back. *)
  check Alcotest.bool "statement failed" true
    (try
       ignore
         (Cypher.run s
            "MATCH (u:user {uid: 0}) CREATE (x:orphan {tag: 1}) DELETE u");
       false
     with Cypher.Query_error _ -> true);
  check Alcotest.int "created node rolled back" before (Db.node_count (Cypher.db s))

let test_readonly_query_reports_zero_updates () =
  let s, _ = session () in
  let r = Cypher.run s "MATCH (u:user) RETURN count(*) AS c" in
  check Alcotest.bool "no updates" true (r.Cypher.updates = Executor.no_updates)

let test_create_parse_errors () =
  let s, _ = session () in
  let bad q = try ignore (Cypher.run s q); false with Cypher.Query_error _ -> true in
  check Alcotest.bool "label required" true (bad "CREATE (n)");
  check Alcotest.bool "directed rel required" true
    (bad "CREATE (a:user {uid: 900})-[:f]-(b:user {uid: 901})");
  check Alcotest.bool "var-length rejected" true
    (bad "CREATE (a:user {uid: 902})-[:f*2]->(b:user {uid: 903})");
  check Alcotest.bool "SET unbound" true (bad "SET x.k = 1")

(* ------------------------------------------------------------------ *)
(* OPTIONAL MATCH / UNWIND / MERGE                                     *)
(* ------------------------------------------------------------------ *)

let test_optional_match_binds_nulls () =
  let s, _ = session () in
  (* u4 posts t40, which mentions nobody: the optional expansion is
     empty, so m is null but the row survives. *)
  let rows =
    run s
      "MATCH (u:user {uid: 4})-[:posts]->(t:tweet) OPTIONAL MATCH (t)-[:mentions]->(m:user)        RETURN t.tid, m.uid"
  in
  check rows_testable "row survives with null" [ [ Value.Int 40; Value.Null ] ] rows

let test_optional_match_passes_matches_through () =
  let s, _ = session () in
  let rows =
    run s
      "MATCH (u:user {uid: 3})-[:posts]->(t:tweet) OPTIONAL MATCH (t)-[:mentions]->(m:user)        RETURN t.tid, m.uid"
  in
  (* t30 mentions u0. *)
  check rows_testable "match bound normally" [ [ Value.Int 30; Value.Int 0 ] ] rows

let test_optional_match_null_then_expand () =
  let s, _ = session () in
  (* Expanding from a null binding yields no rows, not an error. *)
  let rows =
    run s
      "MATCH (u:user {uid: 4})-[:posts]->(t:tweet) OPTIONAL MATCH        (t)-[:mentions]->(m:user) MATCH (m)-[:follows]->(f:user) RETURN f.uid"
  in
  check rows_testable "null source expands to nothing" [] rows

let test_optional_match_count_nulls () =
  let s, _ = session () in
  (* count(m) skips nulls: users whose tweets mention nobody count 0. *)
  let rows =
    run s
      "MATCH (u:user {uid: 4})-[:posts]->(t:tweet) OPTIONAL MATCH (t)-[:mentions]->(m:user)        RETURN count(m) AS c"
  in
  check rows_testable "count skips null" [ [ Value.Int 0 ] ] rows

let test_distinct_on_lists () =
  let s, _ = session () in
  (* Two users with different followee sets must survive DISTINCT on
     their collected lists; identical lists must collapse. *)
  let rows =
    run s
      "MATCH (u:user)-[:follows]->(f:user) WITH u, collect(f.uid) AS fs RETURN DISTINCT \
       count(fs) AS c"
  in
  ignore rows;
  let r =
    Cypher.run s
      "MATCH (u:user)-[:follows]->(f:user) WITH u.uid AS uid, collect(f.uid) AS fs RETURN \
       DISTINCT fs"
  in
  (* follow sets: u0 -> [1;2], u1 -> [2], u2 -> [3], u3 -> [0], u4 -> [0];
     distinct lists: [1;2], [2], [3], [0] = 4 *)
  check Alcotest.int "distinct follow-lists" 4 (List.length r.Cypher.rows)

let test_unwind_list_literal () =
  let s, _ = session () in
  let rows = run s "UNWIND [3, 1, 2] AS x RETURN x ORDER BY x" in
  check rows_testable "unwound" [ [ Value.Int 1 ]; [ Value.Int 2 ]; [ Value.Int 3 ] ] rows

let test_unwind_collect_roundtrip () =
  let s, _ = session () in
  let rows =
    run s
      "MATCH (u:user) WITH collect(u.uid) AS ids UNWIND ids AS id RETURN count(id) AS c"
  in
  check rows_testable "collect then unwind" [ [ Value.Int 5 ] ] rows

let test_unwind_null_is_empty () =
  let s, _ = session () in
  let rows = run s "UNWIND null AS x RETURN x" in
  check rows_testable "null unwinds to nothing" [] rows

let test_merge_creates_when_absent () =
  let s, _ = session () in
  let r = Cypher.run s "MERGE (n:user {uid: 500}) RETURN n.uid" in
  check Alcotest.int "created" 1 r.Cypher.updates.Executor.nodes_created;
  let r2 = Cypher.run s "MERGE (n:user {uid: 500}) RETURN n.uid" in
  check Alcotest.int "second merge matches" 0 r2.Cypher.updates.Executor.nodes_created;
  check rows_testable "same node" [ [ Value.Int 500 ] ] (Cypher.value_rows r2)

let test_merge_matches_existing () =
  let s, _ = session () in
  let r = Cypher.run s "MERGE (n:user {uid: 2}) RETURN n.name" in
  check Alcotest.int "no creation" 0 r.Cypher.updates.Executor.nodes_created;
  check rows_testable "existing bound" [ [ Value.Str "user2" ] ] (Cypher.value_rows r)

let test_merge_then_set () =
  let s, _ = session () in
  ignore (Cypher.run s "MERGE (n:user {uid: 600}) SET n.name = 'merged'");
  check rows_testable "upsert" [ [ Value.Str "merged" ] ]
    (run s "MATCH (n:user {uid: 600}) RETURN n.name")

(* Property: a random write script applied through Cypher produces the
   same graph as the same operations through the core API. *)
let prop_cypher_writes_match_api =
  QCheck.Test.make ~name:"Cypher writes = core API writes" ~count:40
    QCheck.(list (triple (int_range 0 9) (int_range 0 9) (int_range 0 2)))
    (fun operations ->
      let via_cypher = Db.create () in
      let session = Cypher.create via_cypher in
      let via_api = Db.create () in
      (* Ten seed nodes each. *)
      for uid = 0 to 9 do
        ignore
          (Cypher.run session
             ~params:[ ("uid", Value.Int uid) ]
             "CREATE (n:user {uid: $uid})")
      done;
      Db.create_index via_cypher ~label:"user" ~property:"uid";
      let api_nodes =
        Array.init 10 (fun uid ->
            Db.create_node via_api ~label:"user" (props [ ("uid", Value.Int uid) ]))
      in
      List.iter
        (fun (a, b, kind) ->
          match kind with
          | 0 ->
            (* follow edge a -> b *)
            ignore
              (Cypher.run session
                 ~params:[ ("a", Value.Int a); ("b", Value.Int b) ]
                 "MATCH (x:user {uid: $a}), (y:user {uid: $b}) CREATE (x)-[:follows]->(y)");
            ignore
              (Db.create_edge via_api ~etype:"follows" ~src:api_nodes.(a) ~dst:api_nodes.(b)
                 Property.empty)
          | 1 ->
            (* set a property *)
            ignore
              (Cypher.run session
                 ~params:[ ("a", Value.Int a); ("v", Value.Int b) ]
                 "MATCH (x:user {uid: $a}) SET x.score = $v");
            Db.set_node_property via_api api_nodes.(a) "score" (Value.Int b)
          | _ ->
            (* delete one a->b follow edge if present, in both *)
            ignore
              (Cypher.run session
                 ~params:[ ("a", Value.Int a); ("b", Value.Int b) ]
                 "MATCH (x:user {uid: $a})-[r:follows]->(y:user {uid: $b}) WITH r, x, y \
                  LIMIT 1 DELETE r");
            (match
               Seq.find
                 (fun (e : Mgq_core.Types.edge) -> e.dst = api_nodes.(b))
                 (Db.edges_of via_api api_nodes.(a) ~etype:"follows" Mgq_core.Types.Out)
             with
            | Some e -> Db.delete_edge via_api e.Mgq_core.Types.id
            | None -> ()))
        operations;
      (* Compare: counts, neighbor multisets, properties. *)
      Db.node_count via_cypher = Db.node_count via_api
      && Db.edge_count via_cypher = Db.edge_count via_api
      && List.for_all
           (fun uid ->
             let cypher_node =
               List.hd (Db.index_lookup via_cypher ~label:"user" ~property:"uid" (Value.Int uid))
             in
             let neighbors db node =
               List.sort compare
                 (List.map
                    (fun n ->
                      match Db.node_property db n "uid" with
                      | Value.Int u -> u
                      | _ -> -1)
                    (List.of_seq (Db.neighbors db node ~etype:"follows" Mgq_core.Types.Out)))
             in
             neighbors via_cypher cypher_node = neighbors via_api api_nodes.(uid)
             && Db.node_property via_cypher cypher_node "score"
                = Db.node_property via_api api_nodes.(uid) "score")
           (List.init 10 Fun.id))

(* ------------------------------------------------------------------ *)
(* Result rendering                                                    *)
(* ------------------------------------------------------------------ *)

let test_result_to_string () =
  let s, _ = session () in
  let r = Cypher.run s "MATCH (u:user {uid: 0}) RETURN u.uid AS uid" in
  let text = Cypher.to_string r in
  check Alcotest.bool "renders" true (String.length text > 0)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "lexer",
      [
        Alcotest.test_case "basic" `Quick test_lexer_basic;
        Alcotest.test_case "arrow vs comparison" `Quick test_lexer_arrow_vs_comparison;
        Alcotest.test_case "range" `Quick test_lexer_range;
        Alcotest.test_case "strings and numbers" `Quick test_lexer_strings_and_numbers;
        Alcotest.test_case "errors" `Quick test_lexer_errors;
      ] );
    ( "parser",
      [
        Alcotest.test_case "simple match" `Quick test_parse_simple_match;
        Alcotest.test_case "var length + direction" `Quick test_parse_var_length_and_direction;
        Alcotest.test_case "shortest path" `Quick test_parse_shortest_path;
        Alcotest.test_case "pattern predicate" `Quick test_parse_where_pattern_predicate;
        Alcotest.test_case "aggregation/order/limit" `Quick test_parse_aggregation_order_limit;
        Alcotest.test_case "with/collect/in" `Quick test_parse_with_collect_in;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "default aliases" `Quick test_parse_default_aliases;
        qtest prop_expr_print_parse_roundtrip;
      ] );
    ( "planner",
      [
        Alcotest.test_case "index seek" `Quick test_plan_uses_index_seek;
        Alcotest.test_case "label scan fallback" `Quick test_plan_label_scan_without_index;
        Alcotest.test_case "orients to indexed end" `Quick test_plan_orients_to_indexed_end;
      ] );
    ( "queries",
      [
        Alcotest.test_case "Q1 select" `Quick test_q1_select_by_property;
        Alcotest.test_case "Q2.1 adjacency" `Quick test_q2_1_adjacency;
        Alcotest.test_case "Q2.2 two-step" `Quick test_q2_2_two_step;
        Alcotest.test_case "Q2.3 three-step distinct" `Quick test_q2_3_three_step_distinct;
        Alcotest.test_case "Q3.1 co-mentions" `Quick test_q3_1_co_mentions;
        Alcotest.test_case "Q3.2 co-hashtags" `Quick test_q3_2_co_occurring_hashtags;
        Alcotest.test_case "Q4.1 recommendation" `Quick test_q4_1_recommendation;
        Alcotest.test_case "Q4 variant (a)" `Quick test_q4_variant_a_var_length;
        Alcotest.test_case "Q4 variant (b)" `Quick test_q4_variant_b_with_collect;
        Alcotest.test_case "Q5.1 current influence" `Quick test_q5_1_current_influence;
        Alcotest.test_case "Q5.2 potential influence" `Quick test_q5_2_potential_influence;
        Alcotest.test_case "Q6.1 shortest path" `Quick test_q6_1_shortest_path;
        Alcotest.test_case "Q6 directed" `Quick test_q6_directed_shortest_path;
        Alcotest.test_case "Q6 unreachable" `Quick test_shortest_path_no_route_yields_no_row;
      ] );
    ( "language",
      [
        Alcotest.test_case "count distinct" `Quick test_count_distinct;
        Alcotest.test_case "sum/min/max" `Quick test_sum_min_max;
        Alcotest.test_case "skip/limit" `Quick test_skip_limit;
        Alcotest.test_case "skip/limit parameterised" `Quick test_skip_limit_parameterised;
        Alcotest.test_case "profile on write" `Quick test_profile_on_write;
        Alcotest.test_case "arithmetic and bool" `Quick test_arithmetic_and_bool;
        Alcotest.test_case "IN list literal" `Quick test_in_list_literal;
        Alcotest.test_case "null semantics" `Quick test_null_semantics;
        Alcotest.test_case "aggregate empty input" `Quick test_aggregate_empty_input;
        Alcotest.test_case "unknown param" `Quick test_unknown_param_errors;
        Alcotest.test_case "multi-pattern cartesian" `Quick test_multi_pattern_cartesian;
        Alcotest.test_case "both-direction expand" `Quick test_both_direction_expand;
      ] );
    ( "writes",
      [
        Alcotest.test_case "create node" `Quick test_create_node;
        Alcotest.test_case "create uses index" `Quick test_create_uses_index;
        Alcotest.test_case "create relationship" `Quick test_create_relationship_pattern;
        Alcotest.test_case "match+create per row" `Quick test_match_create_per_row;
        Alcotest.test_case "a streamed scan misses its own writes" `Quick
          test_scan_misses_own_writes;
        Alcotest.test_case "create then return" `Quick test_create_then_return;
        Alcotest.test_case "set property" `Quick test_set_property;
        Alcotest.test_case "set maintains index" `Quick test_set_maintains_index;
        Alcotest.test_case "remove property" `Quick test_remove_property;
        Alcotest.test_case "delete relationship" `Quick test_delete_relationship;
        Alcotest.test_case "delete connected fails" `Quick
          test_delete_connected_node_fails_and_rolls_back;
        Alcotest.test_case "detach delete" `Quick test_detach_delete;
        Alcotest.test_case "write error rolls back" `Quick
          test_write_error_rolls_back_created_nodes;
        Alcotest.test_case "read-only zero updates" `Quick
          test_readonly_query_reports_zero_updates;
        Alcotest.test_case "create validation errors" `Quick test_create_parse_errors;
        qtest prop_cypher_writes_match_api;
      ] );
    ( "pattern-fuzz", [ qtest prop_patterns_match_brute_force ] );
    ( "optional-unwind-merge",
      [
        Alcotest.test_case "optional binds nulls" `Quick test_optional_match_binds_nulls;
        Alcotest.test_case "optional passes matches" `Quick
          test_optional_match_passes_matches_through;
        Alcotest.test_case "null then expand" `Quick test_optional_match_null_then_expand;
        Alcotest.test_case "count skips nulls" `Quick test_optional_match_count_nulls;
        Alcotest.test_case "distinct on lists" `Quick test_distinct_on_lists;
        Alcotest.test_case "unwind literal" `Quick test_unwind_list_literal;
        Alcotest.test_case "unwind collect" `Quick test_unwind_collect_roundtrip;
        Alcotest.test_case "unwind null" `Quick test_unwind_null_is_empty;
        Alcotest.test_case "merge creates" `Quick test_merge_creates_when_absent;
        Alcotest.test_case "merge matches" `Quick test_merge_matches_existing;
        Alcotest.test_case "merge then set" `Quick test_merge_then_set;
      ] );
    ( "cache-profile",
      [
        Alcotest.test_case "cache hit on params" `Quick test_plan_cache_hit_on_params;
        Alcotest.test_case "cache miss on literals" `Quick test_plan_cache_miss_on_literals;
        Alcotest.test_case "profile operators" `Quick test_profile_reports_operators;
        Alcotest.test_case "no profile by default" `Quick test_profile_absent_without_keyword;
        Alcotest.test_case "explain" `Quick test_explain_does_not_execute;
        Alcotest.test_case "result rendering" `Quick test_result_to_string;
      ] );
  ]

let () = Alcotest.run "mgq_cypher" suite
