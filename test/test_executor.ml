(* Executor equivalence: the Cypher executor must charge the same db
   hits and emit the same per-operator rows as the golden captured
   from the previous executor, and on random small crawls every
   Table-2 query must give the reference evaluator's answer through
   Cypher under both planners and through the core API. The label
   scan streams into its consumer: it must never be materialised, and
   it must leave attribution and budgets as a materialised scan
   would. *)

module Generator = Mgq_twitter.Generator
module Dataset = Mgq_twitter.Dataset
module Contexts = Mgq_queries.Contexts
module Reference = Mgq_queries.Reference
module Workload = Mgq_queries.Workload
module Results = Mgq_queries.Results
module Cypher = Mgq_cypher.Cypher
module Executor = Mgq_cypher.Executor
module Runtime = Mgq_cypher.Runtime
module Db = Mgq_neo.Db
module Value = Mgq_core.Value
module Property = Mgq_core.Property
module Budget = Mgq_util.Budget
module Obs = Mgq_obs.Obs

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


(* ------------------------------------------------------------------ *)
(* The label scan streams                                              *)
(* ------------------------------------------------------------------ *)

(* A selective filter over a 40,000-node label keeps nothing, so a
   streamed scan leaves only short-lived rows: a run promotes a few
   words where a materialised row list (about 9 words a row) would
   outgrow the minor heap. *)
let test_label_scan_not_materialised () =
  let label_size = 40_000 in
  let db = Db.create ~wal:false () in
  for x = 1 to label_size do
    ignore (Db.create_node db ~label:"L" (Property.of_list [ ("x", Value.Int x) ]) : int)
  done;
  let session = Cypher.create db in
  let params = [ ("k", Value.Int label_size) ] in
  let run () = Cypher.run ~params session "MATCH (n:L) WHERE n.x > $k RETURN n.x" in
  let empty (r : Cypher.result) = Alcotest.check Alcotest.int "no row passes" 0 (List.length r.Cypher.rows) in
  empty (run ());
  let before = Gc.quick_stat () in
  empty (run ());
  let after = Gc.quick_stat () in
  let promoted = after.Gc.promoted_words -. before.Gc.promoted_words in
  let ceiling = 0.05 *. float_of_int (8 * label_size) in
  if promoted >= ceiling then
    Alcotest.failf "one run promoted %.0f words (ceiling %.0f)" promoted ceiling

(* Label-scan-led texts over a crawl, each with its parameters and the
   same answer computed through the core API. *)
let scan_queries (d : Dataset.t) ~k ~uid =
  let neo = Contexts.build_neo d in
  let db = neo.Contexts.db in
  let prop node key =
    match Db.node_property db node key with Value.Int i -> i | _ -> -1
  in
  let users () = List.of_seq (Db.nodes_with_label db "user") in
  let over_k () = List.filter (fun b -> prop b "followers" > k) (users ()) in
  let ints l = List.map (fun i -> [ string_of_int i ]) l in
  ( neo,
    [
      ( Mgq_queries.Q_cypher.text_q1,
        [ ("k", Value.Int k) ],
        fun () -> ints (List.map (fun u -> prop u "uid") (over_k ())) );
      ("MATCH (u:user) RETURN count(u)", [], fun () -> ints [ List.length (users ()) ]);
      ( "MATCH (u:user)-[:follows]->(f) RETURN f.uid",
        [],
        fun () ->
          ints
            (List.concat_map
               (fun u ->
                 List.of_seq (Seq.map (fun f -> prop f "uid") (Db.neighbors db u ~etype:"follows" Mgq_core.Types.Out)))
               (users ())) );
      ( "MATCH (a:user {uid: $uid}), (b:user) WHERE b.followers > $k RETURN a.uid, b.uid",
        [ ("uid", Value.Int uid); ("k", Value.Int k) ],
        fun () ->
          if List.exists (fun u -> prop u "uid" = uid) (users ()) then
            List.map (fun b -> [ string_of_int uid; string_of_int (prop b "uid") ]) (over_k ())
          else [] );
      (* A scan reading a scan: both stream into the Filter. *)
      ( "MATCH (a:user), (b:user) WHERE a.uid < 3 AND b.followers > $k RETURN a.uid, b.uid",
        [ ("k", Value.Int k) ],
        fun () ->
          List.concat_map
            (fun a ->
              if prop a "uid" < 3 then
                List.map (fun b -> [ string_of_int (prop a "uid"); string_of_int (prop b "uid") ]) (over_k ())
              else [])
            (users ()) );
    ] )

let rendered (r : Cypher.result) =
  List.sort compare
    (List.map
       (List.map (function Runtime.Ival v -> Value.to_display v | _ -> "?"))
       r.Cypher.rows)

let cypher_hits () =
  Option.value ~default:0 (Obs.find_counter (Obs.snapshot ()) "cypher.db_hits")

(* The first broken invariant of one query, or None. *)
let attribution_fault neo (text, params, api) ~budget_at =
  let session = neo.Contexts.session and db = neo.Contexts.db in
  let hits0 = cypher_hits () in
  let profiled = Cypher.run ~params session ("PROFILE " ^ text) in
  let run_hits = cypher_hits () - hits0 in
  let entries = Option.get profiled.Cypher.profile in
  let total = Executor.total_db_hits entries in
  Obs.Trace.enable ();
  let traced = Cypher.run ~params session text in
  Obs.Trace.disable ();
  let notes =
    List.filter_map
      (fun (s : Obs.Trace.span) ->
        let name = s.Obs.Trace.name in
        if String.length name > 3 && String.sub name 0 3 = "op." then
          Some
            ( String.sub name 3 (String.length name - 3),
              Obs.Trace.attr_int s "rows",
              Obs.Trace.attr_int s "db_hits" )
        else None)
      (Obs.Trace.spans ())
  in
  let profiled_notes =
    List.map (fun (e : Executor.profile_entry) -> (e.Executor.name, Some e.rows, Some e.db_hits)) entries
  in
  (* A scan emits the label's size per input row. *)
  let label = Db.label_count db "user" in
  let rec scan_fault input = function
    | [] -> None
    | (e : Executor.profile_entry) :: rest ->
      if e.Executor.name = "NodeByLabelScan" && e.rows <> input * label then
        Some (Printf.sprintf "scan rows %d from %d input rows, label count %d" e.rows input label)
      else scan_fault e.rows rest
  in
  let scan_fault = scan_fault 1 entries in
  let budgeted =
    match Cypher.run ~params ~budget:(Budget.create ~max_hits:budget_at ()) session text with
    | _ -> false
    | exception Budget.Exhausted _ -> true
  in
  let expected = List.sort compare (api ()) in
  if scan_fault <> None then scan_fault
  else if run_hits <> total then
    Some (Printf.sprintf "operators sum to %d, the run charged %d" total run_hits)
  else if List.sort compare notes <> List.sort compare profiled_notes then
    Some "traced per-operator notes differ from PROFILE"
  else if rendered profiled <> expected || rendered traced <> expected then
    Some "answer differs from the core API"
  else if budgeted <> (budget_at < total) then
    Some (Printf.sprintf "budget %d of %d: tripped=%b" budget_at total budgeted)
  else None

let prop_scan_attribution =
  QCheck.Test.make ~name:"streamed label scans keep PROFILE, traces, answers and budgets"
    ~count:20
    QCheck.(quad (int_bound 10_000) (int_bound 36) (int_bound 12) (float_bound_inclusive 1.2))
    (fun (seed, users, k, budget_frac) ->
      let n_users = 12 + users in
      let d = Generator.generate (config ~seed ~n_users) in
      let neo, queries = scan_queries d ~k ~uid:(seed mod n_users) in
      match
        List.find_map
          (fun ((text, params, _) as q) ->
            let total =
              Executor.total_db_hits
                (Option.get (Cypher.run ~params neo.Contexts.session ("PROFILE " ^ text)).Cypher.profile)
            in
            let budget_at = int_of_float (budget_frac *. float_of_int total) in
            Option.map (fun m -> text ^ ": " ^ m) (attribution_fault neo q ~budget_at))
          queries
      with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "seed=%d users=%d k=%d: %s" seed n_users k msg)

let () =
  Alcotest.run "mgq_executor"
    [
      ( "executor",
        [
          Alcotest.test_case "Table-2 PROFILE golden, both planners" `Quick
            test_profile_golden;
          qtest ~rand:(Random.State.make [| 17 |]) prop_paths_agree;
          Alcotest.test_case "a label scan is never materialised" `Quick
            test_label_scan_not_materialised;
          qtest ~rand:(Random.State.make [| 35 |]) prop_scan_attribution;
        ] );
    ]
