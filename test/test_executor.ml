(* Executor equivalence: the Cypher executor must charge the same db
   hits and emit the same per-operator rows as the golden captured
   from the previous executor, and on random small crawls every
   Table-2 query must give the reference evaluator's answer through
   Cypher under both planners and through the core API. *)

module Generator = Mgq_twitter.Generator
module Dataset = Mgq_twitter.Dataset
module Contexts = Mgq_queries.Contexts
module Reference = Mgq_queries.Reference
module Workload = Mgq_queries.Workload
module Results = Mgq_queries.Results
module Cypher = Mgq_cypher.Cypher
module Executor = Mgq_cypher.Executor

let qtest = QCheck_alcotest.to_alcotest

(* Denser activity than the default config, so every query has rows
   at these small scales. *)
let config ~seed ~n_users =
  {
    (Generator.scaled ~seed ~n_users ()) with
    Generator.active_fraction = 0.08;
    tweets_per_active = 30;
    mentions_per_tweet = 1.2;
    tags_per_tweet = 0.8;
  }

(* ------------------------------------------------------------------ *)
(* PROFILE golden                                                      *)
(* ------------------------------------------------------------------ *)

let golden_path = "golden/table2_profile.txt"

let golden_args =
  [
    Workload.default_args;
    { Workload.default_args with Workload.uid = 57; uid2 = 94; tag = "topic1" };
  ]

(* PROFILE of every Table-2 text at 300 users under both planners:
   operator, detail, rows and db hits. *)
let render_profiles () =
  let dataset = Generator.generate (config ~seed:42 ~n_users:300) in
  let neo = Contexts.build_neo ~planner:Cypher.Heuristic dataset in
  let buf = Buffer.create 16_384 in
  List.iter
    (fun (planner, name) ->
      let session = Cypher.create ~planner neo.Contexts.db in
      List.iter
        (fun (args : Workload.args) ->
          List.iter
            (fun (q : Workload.query) ->
              let text = "PROFILE " ^ q.Workload.cypher_text args in
              let r = Cypher.run ~params:(Workload.params args) session text in
              Printf.bprintf buf "=== %s %s uid=%d ===\n%s\n" q.Workload.id name
                args.Workload.uid
                (Executor.profile_to_string (Option.get r.Cypher.profile)))
            Workload.all)
        golden_args)
    [ (Cypher.Heuristic, "heuristic"); (Cypher.Cost_based, "cost") ];
  Buffer.contents buf

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* On a mismatch the rendering is written next to the golden, for
   diffing against it. *)
let test_profile_golden () =
  let actual = render_profiles () in
  let expected = read_file golden_path in
  if actual <> expected then begin
    Out_channel.with_open_bin "table2_profile.actual" (fun oc -> output_string oc actual);
    Alcotest.failf "PROFILE output differs from %s (see table2_profile.actual)" golden_path
  end

(* ------------------------------------------------------------------ *)
(* Differential property                                               *)
(* ------------------------------------------------------------------ *)

let arg_sets (d : Dataset.t) =
  let n = d.Dataset.n_users in
  let tags = d.Dataset.hashtags in
  List.map
    (fun (i, uid) ->
      {
        Workload.default_args with
        Workload.uid;
        uid2 = (uid + (n / 3) + 1) mod n;
        tag = (if Array.length tags = 0 then "topic0" else tags.(i mod Array.length tags));
        threshold = 1 + (i * 2);
      })
    [ (0, 0); (1, n / 2); (2, n - 1) ]

(* The first disagreement, or None. *)
let disagreement ~seed ~n_users =
  let d = Generator.generate (config ~seed ~n_users) in
  let reference = Reference.build d in
  let heuristic = Contexts.build_neo ~planner:Cypher.Heuristic d in
  let cost_session = Cypher.create ~planner:Cypher.Cost_based heuristic.Contexts.db in
  let cost = { heuristic with Contexts.session = cost_session } in
  let runners =
    [
      ("cypher/heuristic", fun (q : Workload.query) a -> q.Workload.run_cypher heuristic a);
      ("cypher/cost", fun q a -> q.Workload.run_cypher cost a);
      ("core API", fun q a -> q.Workload.run_neo_api heuristic a);
    ]
  in
  List.find_map
    (fun (args : Workload.args) ->
      List.find_map
        (fun (q : Workload.query) ->
          let expected = q.Workload.run_reference reference args in
          List.find_map
            (fun (name, run) ->
              let got = run q args in
              if Results.equal expected got then None
              else
                Some
                  (Printf.sprintf "%s uid=%d via %s: expected %s, got %s" q.Workload.id
                     args.Workload.uid name (Results.to_string expected)
                     (Results.to_string got)))
            runners)
        Workload.all)
    (arg_sets d)

let prop_paths_agree =
  QCheck.Test.make ~name:"Cypher (both planners) and core API agree with Reference"
    ~count:25
    QCheck.(pair (int_bound 10_000) (int_bound 48))
    (fun (seed, users) ->
      (* An offset from the 12-user floor, so shrinking towards 0 never
         asks the generator for an empty crawl. *)
      let n_users = 12 + users in
      match disagreement ~seed ~n_users with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "seed=%d users=%d: %s" seed n_users msg)

let () =
  Alcotest.run "mgq_executor"
    [
      ( "executor",
        [
          Alcotest.test_case "Table-2 PROFILE golden, both planners" `Quick
            test_profile_golden;
          qtest ~rand:(Random.State.make [| 17 |]) prop_paths_agree;
        ] );
    ]
