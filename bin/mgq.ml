(* mgq: command-line front end.

     mgq generate --users 5000 --out crawl/       write TSV source files
     mgq stats --dir crawl/                       Table-1 style counts
     mgq import --dir crawl/ --engine neo         batch-load and summarise
     mgq query --dir crawl/ --id Q3.1 --uid 42    run a workload query
     mgq cypher --dir crawl/ "MATCH ... RETURN ..."  ad-hoc declarative query
     mgq serve --port 8080                        HTTP front-end (navigation + Cypher)
     mgq loadgen --port 8080 --rate 500           open-loop socket load rig

   Databases are in-memory: import happens per invocation. *)

module Generator = Mgq_twitter.Generator
module Dataset = Mgq_twitter.Dataset
module Source_files = Mgq_twitter.Source_files
module Import_report = Mgq_twitter.Import_report
module Import_neo = Mgq_twitter.Import_neo
module Contexts = Mgq_queries.Contexts
module Reference = Mgq_queries.Reference
module Workload = Mgq_queries.Workload
module Results = Mgq_queries.Results
module Cypher = Mgq_cypher.Cypher
module Text_table = Mgq_util.Text_table
module Obs = Mgq_obs.Obs
open Cmdliner

(* ---------------- tracing ---------------- *)

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record a span tree for the request (router, engine, traversal layers) and \
           print it after the result.")

let start_trace () = Obs.Trace.enable ~clock:Mgq_util.Stats.Timing.now_ns ()

let print_trace () =
  Printf.printf "\ntrace:\n%s%!" (Obs.Trace.render_tree ());
  Obs.Trace.disable ()

(* ---------------- shared arguments ---------------- *)

let dir_arg =
  let doc = "Directory holding the TSV source files." in
  Arg.(required & opt (some string) None & info [ "dir"; "d" ] ~docv:"DIR" ~doc)

let load_dataset dir =
  let dataset = Source_files.read (Source_files.paths_in dir) in
  match Dataset.validate dataset with
  | Ok () -> dataset
  | Error msg -> failwith ("invalid source files: " ^ msg)

(* Where [cypher], [explain] and [analyze] get their database: a saved
   record store (--db wins) or a TSV directory to import. Neither is a
   usage error, reported by Cmdliner before the command runs. *)
type neo_source = Db_file of string | Tsv_dir of string

let neo_source_arg =
  let dir_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir"; "d" ] ~docv:"DIR" ~doc:"TSV source directory to import from.")
  in
  let db_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "db" ] ~docv:"FILE"
          ~doc:"Saved record-store database (from $(b,mgq import --save)).")
  in
  let pick dir db =
    match (db, dir) with
    | Some path, _ -> `Ok (Db_file path)
    | None, Some dir -> `Ok (Tsv_dir dir)
    | None, None -> `Error (true, "pass --dir or --db")
  in
  Term.(ret (const pick $ dir_opt $ db_opt))

let open_neo_db = function
  | Db_file path -> Mgq_neo.Db.load path
  | Tsv_dir dir ->
    let ctx = Contexts.build_neo (load_dataset dir) in
    ctx.Contexts.db

let save_neo_db database =
  Option.iter (fun path ->
      Mgq_neo.Db.save database path;
      Printf.printf "saved database to %s\n" path)

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let policy_arg =
  let module Router = Mgq_cluster.Router in
  let doc = "Routing policy: $(b,round-robin), $(b,least-lagged) or $(b,sticky)." in
  let policies =
    [
      ("round-robin", Router.Round_robin);
      ("least-lagged", Router.Least_lagged);
      ("sticky", Router.Sticky);
    ]
  in
  Arg.(value & opt (enum policies) Router.Round_robin & info [ "policy"; "p" ] ~doc)

(* The Table-2 parameters [query] and [explain] accept. *)
let workload_args =
  let uid = Arg.(value & opt int 0 & info [ "uid" ] ~doc:"Seed user id.") in
  let uid2 = Arg.(value & opt int 1 & info [ "uid2" ] ~doc:"Second user id (Q6.1).") in
  let tag = Arg.(value & opt string "topic0" & info [ "tag" ] ~doc:"Seed hashtag (Q3.2).") in
  let n = Arg.(value & opt int 10 & info [ "n" ] ~doc:"Top-n limit.") in
  let threshold = Arg.(value & opt int 10 & info [ "threshold" ] ~doc:"Q1.1 threshold.") in
  let args uid uid2 tag n threshold = { Workload.uid; uid2; tag; n; threshold; max_hops = 3 } in
  Term.(const args $ uid $ uid2 $ tag $ n $ threshold)

(* ---------------- campaign verdicts ---------------- *)

(* Every campaign ([audit], [chaos], [cluster]) ends here: print its
   lines, write [report] (default: the same lines) to [report_file],
   and exit 1 if any verdict failed. *)
let finish ?report_file ~lines ?(report = lines) verdicts =
  List.iter print_endline lines;
  Option.iter
    (fun file ->
      let oc = open_out file in
      List.iter (fun l -> output_string oc (l ^ "\n")) report;
      close_out oc;
      Printf.printf "report written to %s\n" file)
    report_file;
  List.iter
    (fun (v : Mgq_util.Verdict.t) ->
      if not v.passed then Printf.eprintf "mgq: oracle %s failed: %s\n" v.name v.detail)
    verdicts;
  if not (Mgq_util.Verdict.passed verdicts) then exit 1

(* ---------------- generate ---------------- *)

let generate_cmd =
  let users =
    Arg.(value & opt int 5000 & info [ "users"; "u" ] ~docv:"N" ~doc:"Number of users.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"DIR" ~doc:"Output directory for the TSV files.")
  in
  let retweets =
    Arg.(value & flag & info [ "retweets" ] ~doc:"Also generate retweet edges.")
  in
  let run users seed out retweets =
    let config =
      { (Generator.scaled ~seed ~n_users:users ()) with Generator.with_retweets = retweets }
    in
    let dataset = Generator.generate config in
    let paths = Source_files.write dataset out in
    let s = Dataset.stats dataset in
    Printf.printf "wrote %s nodes / %s edges to %s (%s bytes)\n"
      (Text_table.fmt_int s.Dataset.total_nodes)
      (Text_table.fmt_int s.Dataset.total_edges)
      out
      (Text_table.fmt_int (Source_files.total_bytes paths))
  in
  let info = Cmd.info "generate" ~doc:"Generate a synthetic Twitter crawl as TSV files." in
  Cmd.v info Term.(const run $ users $ seed_arg $ out $ retweets)

(* ---------------- stats ---------------- *)

let stats_cmd =
  let run dir =
    let s = Dataset.stats (load_dataset dir) in
    Text_table.print
      ~aligns:[ Text_table.Left; Text_table.Right ]
      ~header:[ "node/relationship"; "count" ]
      [
        [ "user"; Text_table.fmt_int s.Dataset.users ];
        [ "tweet"; Text_table.fmt_int s.Dataset.tweet_nodes ];
        [ "hashtag"; Text_table.fmt_int s.Dataset.hashtag_nodes ];
        [ "follows"; Text_table.fmt_int s.Dataset.follows_edges ];
        [ "posts"; Text_table.fmt_int s.Dataset.posts_edges ];
        [ "mentions"; Text_table.fmt_int s.Dataset.mentions_edges ];
        [ "tags"; Text_table.fmt_int s.Dataset.tags_edges ];
        [ "retweets"; Text_table.fmt_int s.Dataset.retweets_edges ];
        [ "total nodes"; Text_table.fmt_int s.Dataset.total_nodes ];
        [ "total edges"; Text_table.fmt_int s.Dataset.total_edges ];
      ]
  in
  let info = Cmd.info "stats" ~doc:"Print Table-1 style dataset characteristics." in
  Cmd.v info Term.(const run $ dir_arg)

(* ---------------- import ---------------- *)

let engine_arg =
  let doc = "Engine: $(b,neo) (record store) or $(b,sparks) (bitmap)." in
  Arg.(value & opt (enum [ ("neo", `Neo); ("sparks", `Sparks) ]) `Neo & info [ "engine"; "e" ] ~doc)

let import_cmd =
  let materialize =
    Arg.(
      value & flag
      & info [ "materialize-neighbors" ]
          ~doc:"Sparksee-style neighbor materialisation during import (slow).")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Persist the loaded database to FILE.")
  in
  let run dir engine materialize save =
    let dataset = load_dataset dir in
    let report =
      match engine with
      | `Neo ->
        let ctx = Contexts.build_neo dataset in
        (match save with
        | Some path ->
          Mgq_neo.Db.save ctx.Contexts.db path;
          Printf.printf "saved record-store database to %s\n" path
        | None -> ());
        ctx.Contexts.report
      | `Sparks ->
        let ctx = Contexts.build_sparks ~materialize_neighbors:materialize dataset in
        (match save with
        | Some path ->
          Mgq_sparks.Sdb.save ctx.Contexts.sdb path;
          Printf.printf "saved bitmap database to %s\n" path
        | None -> ());
        ctx.Contexts.s_report
    in
    Text_table.print
      ~aligns:[ Text_table.Left; Text_table.Right ]
      ~header:[ "metric"; "value" ]
      [
        [ "simulated import ms"; Printf.sprintf "%.1f" report.Import_report.total_sim_ms ];
        [ "wall import ms"; Printf.sprintf "%.1f" report.Import_report.total_wall_ms ];
        [
          "intermediate (dense nodes) ms";
          Printf.sprintf "%.1f" report.Import_report.intermediate_sim_ms;
        ];
        [ "index build ms"; Printf.sprintf "%.1f" report.Import_report.index_sim_ms ];
        [ "database bytes"; Text_table.fmt_int (report.Import_report.size_words * 8) ];
      ]
  in
  let info = Cmd.info "import" ~doc:"Batch-import the source files and report timings." in
  Cmd.v info Term.(const run $ dir_arg $ engine_arg $ materialize $ save)

(* ---------------- query ---------------- *)

let query_cmd =
  let id_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "id"; "q" ] ~docv:"QID" ~doc:"Workload query id (Q1.1 .. Q6.1).")
  in
  let system =
    Arg.(
      value
      & opt (enum [ ("cypher", `Cypher); ("neo-api", `Neo_api); ("sparks", `Sparks) ]) `Cypher
      & info [ "system"; "s" ] ~doc:"Implementation: cypher, neo-api or sparks.")
  in
  (* The traced path serves the read through a one-replica cluster so
     the span tree crosses every layer the request really would:
     router -> replica -> engine -> traversal. The import runs on the
     primary (it manages its own transactions); the replica starts as
     its base backup. *)
  let run_routed dataset q args system =
    let module Cluster = Mgq_cluster.Cluster in
    let module Replica = Mgq_cluster.Replica in
    let config =
      {
        Cluster.default_config with
        Cluster.replicas = 1;
        lag = Replica.Immediate;
        drop_p = 0.;
        sync_replicas = 0;
      }
    in
    let primary = Mgq_neo.Db.create () in
    let report, users, tweets, hashtags = Import_neo.run primary dataset in
    let cluster = Cluster.create ~config ~primary () in
    start_trace ();
    let session = Cluster.session cluster 0 in
    Cluster.read cluster ~session (fun db ->
        (* The replica is a copy of the primary, so the primary's
           dataset->node maps are valid on it too. *)
        let ctx =
          { Contexts.db; session = Cypher.create db; users; tweets; hashtags; report }
        in
        match system with
        | `Cypher -> q.Workload.run_cypher ctx args
        | `Neo_api -> q.Workload.run_neo_api ctx args)
  in
  let run dir id args system trace =
    match Workload.find id with
    | None ->
      Printf.eprintf "unknown query %s; known: %s\n" id
        (String.concat ", " (List.map (fun q -> q.Workload.id) Workload.all));
      exit 2
    | Some q ->
      let dataset = load_dataset dir in
      let result =
        match system with
        | `Cypher when trace -> run_routed dataset q args `Cypher
        | `Neo_api when trace -> run_routed dataset q args `Neo_api
        | `Cypher -> q.Workload.run_cypher (Contexts.build_neo dataset) args
        | `Neo_api -> q.Workload.run_neo_api (Contexts.build_neo dataset) args
        | `Sparks ->
          let ctx = Contexts.build_sparks dataset in
          if trace then start_trace ();
          Obs.Trace.with_span "sparks.query" ~attrs:[ ("id", q.Workload.id) ]
          @@ fun () -> q.Workload.run_sparks ctx args
      in
      Printf.printf "%s (%s): %s\n" q.Workload.id q.Workload.description
        (Results.to_string result);
      if trace then print_trace ()
  in
  let info = Cmd.info "query" ~doc:"Run one workload query against an engine." in
  Cmd.v info
    Term.(const run $ dir_arg $ id_arg $ workload_args $ system $ trace_arg)

(* ---------------- cypher ---------------- *)

let cypher_cmd =
  let text_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"Query text.")
  in
  let explain =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print the plan instead of executing.")
  in
  let save_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Persist the database after the query (for writes).")
  in
  let run source save text explain trace =
    let database = open_neo_db source in
    let session = Cypher.create database in
    if explain then print_endline (Cypher.explain session text)
    else begin
      if trace then start_trace ();
      let result = Cypher.run session text in
      print_string (Cypher.to_string result);
      if trace then print_trace ();
      let u = result.Cypher.updates in
      if u <> Mgq_cypher.Executor.no_updates then
        Printf.printf
          "updates: +%d nodes, +%d relationships, %d properties, -%d nodes, -%d \
           relationships\n"
          u.Mgq_cypher.Executor.nodes_created u.Mgq_cypher.Executor.edges_created
          u.Mgq_cypher.Executor.properties_set u.Mgq_cypher.Executor.nodes_deleted
          u.Mgq_cypher.Executor.edges_deleted
    end;
    save_neo_db database save
  in
  let info =
    Cmd.info "cypher"
      ~doc:
        "Run an ad-hoc declarative query (prefix with PROFILE for db-hit statistics; \
         supports CREATE/MERGE/SET/DELETE writes with --save)."
  in
  Cmd.v info Term.(const run $ neo_source_arg $ save_opt $ text_arg $ explain $ trace_arg)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let save_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Persist the database (with fresh statistics).")
  in
  let run source save =
    let database = open_neo_db source in
    Mgq_neo.Db.analyze database;
    print_string (Mgq_catalog.Catalog.render (Mgq_neo.Db.stats database));
    Printf.printf "stats epoch: %d\n" (Mgq_neo.Db.stats_epoch database);
    save_neo_db database save
  in
  let info =
    Cmd.info "analyze"
      ~doc:
        "Rebuild the graph statistics catalog from a full scan (label counts, degree \
         histograms, value sketches) and print it. Bumps the statistics epoch, \
         invalidating cached plans."
  in
  Cmd.v info Term.(const run $ neo_source_arg $ save_opt)

(* ---------------- explain ---------------- *)

let explain_cmd =
  let text_opt =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"Query text.")
  in
  let workload_flag =
    Arg.(
      value & flag
      & info [ "workload" ] ~doc:"Explain every Table-2 workload query instead of QUERY.")
  in
  (* [None]: the whole workload. Neither is a usage error. *)
  let target =
    let pick text workload =
      match (text, workload) with
      | _, true -> `Ok None
      | Some text, false -> `Ok (Some text)
      | None, false -> `Error (true, "pass a QUERY or --workload")
    in
    Term.(ret (const pick $ text_opt $ workload_flag))
  in
  let analyze_flag =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:"EXPLAIN ANALYZE: execute and report estimated vs actual rows with \
                per-operator q-error.")
  in
  let planner_arg =
    let doc = "Planner: $(b,cost) (statistics-driven) or $(b,heuristic)." in
    Arg.(
      value
      & opt (enum [ ("cost", Cypher.Cost_based); ("heuristic", Cypher.Heuristic) ])
          Cypher.Cost_based
      & info [ "planner" ] ~doc)
  in
  let run source target analyze planner args =
    let session = Cypher.create ~planner (open_neo_db source) in
    let params = Workload.params args in
    let explain_one text =
      if analyze then begin
        let entries = Cypher.explain_analyze ~params session text in
        let lines =
          List.map
            (fun (a : Cypher.analyze_entry) ->
              Printf.sprintf "%-18s %-38s %10.1f %8d %10.1f %8d %7.2f" a.Cypher.op
                a.Cypher.detail a.Cypher.est_rows a.Cypher.act_rows a.Cypher.est_cost
                a.Cypher.act_hits a.Cypher.q_error)
            entries
        in
        Printf.printf "%-18s %-38s %10s %8s %10s %8s %7s\n" "Operator" "Detail" "EstRows"
          "Rows" "EstCost" "DbHits" "Q-err";
        List.iter print_endline lines;
        List.map (fun (a : Cypher.analyze_entry) -> a.Cypher.q_error) entries
      end
      else begin
        print_endline (Cypher.explain_estimated ~params session text);
        []
      end
    in
    match target with
    | Some text -> ignore (explain_one text)
    | None ->
      let q_errors =
        List.concat_map
          (fun q ->
            Printf.printf "=== %s ===\n" q.Workload.id;
            let errs = explain_one (q.Workload.cypher_text Workload.default_args) in
            print_newline ();
            errs)
          Workload.all
      in
      if analyze && q_errors <> [] then begin
        let sorted = List.sort compare q_errors in
        let median = List.nth sorted (List.length sorted / 2) in
        Printf.printf "operators: %d  median q-error: %.2f  max q-error: %.2f\n"
          (List.length sorted) median
          (List.fold_left Float.max 1.0 sorted)
      end
  in
  let info =
    Cmd.info "explain"
      ~doc:
        "Show the physical plan with per-operator row/cost estimates; with $(b,--analyze), \
         execute and compare estimates against measured rows and db hits (q-error)."
  in
  Cmd.v info
    Term.(
      const run $ neo_source_arg $ target $ analyze_flag $ planner_arg $ workload_args)

(* ---------------- sparksee-style load script ---------------- *)

let script_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCRIPT" ~doc:"Script file.")
  in
  let run path =
    let script = Mgq_sparks.Script.parse_file path in
    let report = Mgq_sparks.Script.execute ~base_dir:(Filename.dirname path) script in
    Text_table.print
      ~aligns:[ Text_table.Left; Text_table.Left; Text_table.Right ]
      ~header:[ "kind"; "type"; "loaded" ]
      (List.map (fun (t, n) -> [ "nodes"; t; Text_table.fmt_int n ]) report.Mgq_sparks.Script.nodes_loaded
      @ List.map (fun (t, n) -> [ "edges"; t; Text_table.fmt_int n ]) report.Mgq_sparks.Script.edges_loaded);
    Printf.printf "database: %s nodes, %s edges\n"
      (Text_table.fmt_int (Mgq_sparks.Sdb.node_count report.Mgq_sparks.Script.sdb))
      (Text_table.fmt_int (Mgq_sparks.Sdb.edge_count report.Mgq_sparks.Script.sdb))
  in
  let info =
    Cmd.info "script" ~doc:"Run a Sparksee-style schema/load script against the bitmap engine."
  in
  Cmd.v info Term.(const run $ path_arg)

(* ---------------- cluster ---------------- *)

let cluster_cmd =
  let module Cluster = Mgq_cluster.Cluster in
  let module Replica = Mgq_cluster.Replica in
  let module Router = Mgq_cluster.Router in
  let replicas =
    Arg.(value & opt int 3 & info [ "replicas"; "r" ] ~docv:"N" ~doc:"Read replicas.")
  in
  let lag =
    let parse s =
      match Replica.lag_of_string s with
      | Some l -> Ok l
      | None -> Error (`Msg (Printf.sprintf "bad lag %S (immediate | latency:N | behind:N)" s))
    in
    let print ppf l = Format.pp_print_string ppf (Replica.lag_to_string l) in
    Arg.(
      value
      & opt (conv (parse, print)) (Replica.Latency { ticks = 2 })
      & info [ "lag" ] ~docv:"MODEL"
          ~doc:
            "Replica lag model: $(b,immediate), $(b,latency:N) (apply N ticks after \
             receipt) or $(b,behind:N) (trail the head by N frames).")
  in
  let drop =
    Arg.(
      value & opt float 0.05
      & info [ "drop" ] ~docv:"P" ~doc:"Per-shipment drop probability (resent).")
  in
  let sync =
    Arg.(
      value & opt int 1
      & info [ "sync" ] ~docv:"K"
          ~doc:"Receipt quorum acknowledging a commit (0 = fully async).")
  in
  let sessions =
    Arg.(value & opt int 8 & info [ "sessions" ] ~docv:"S" ~doc:"Concurrent sessions.")
  in
  let steps =
    Arg.(
      value & opt int 500
      & info [ "steps" ] ~docv:"N" ~doc:"Workload steps (reads and writes mixed).")
  in
  let write_ratio =
    Arg.(
      value & opt float 0.25
      & info [ "write-ratio" ] ~docv:"P" ~doc:"Fraction of steps that are writes.")
  in
  let failover =
    Arg.(
      value & flag
      & info [ "failover" ]
          ~doc:"Kill the primary mid-workload, promote, finish on the new primary.")
  in
  let run replicas policy lag drop sync sessions steps write_ratio seed failover =
    let config =
      {
        Cluster.default_config with
        Cluster.replicas;
        policy;
        lag;
        drop_p = drop;
        sync_replicas = sync;
        seed;
      }
    in
    let cluster = Cluster.create ~config () in
    let run =
      Mgq_cluster.Drill.sessions ~failover cluster ~sessions ~steps ~write_ratio ~seed
    in
    let router = Cluster.router cluster in
    (* Text_table renders a trailing newline; print_endline adds it back. *)
    let table ~aligns ~header rows = String.trim (Text_table.render ~aligns ~header rows) in
    let lines =
      List.map
        (fun (step, (p : Cluster.promotion)) ->
          Printf.sprintf
            "primary crashed at step %d: promoted replica %d (tail %d frames, log %s, %d \
             acked commits lost, %d ticks down)"
            step p.new_primary p.tail_applied
            (Mgq_neo.Wal.stop_to_string p.stop)
            p.lost_acked p.downtime_ticks)
        run.promotions
      @ [
          Printf.sprintf "cluster: %d replicas, %s routing, lag %s, drop %.2f, quorum %d"
            (Array.length (Cluster.replicas cluster))
            (Router.policy_to_string policy) (Replica.lag_to_string lag) drop sync;
          Printf.sprintf
            "workload: %d steps over %d sessions; head lsn %d, acked lsn %d, %d ticks, epoch \
             %d"
            steps sessions (Cluster.head_lsn cluster) (Cluster.acked_lsn cluster)
            (Cluster.now cluster) (Cluster.epoch cluster);
          table
            ~aligns:[ Text_table.Left; Text_table.Right ]
            ~header:[ "routing"; "count" ]
            ([
               [ "reads via replicas"; string_of_int (Array.fold_left ( + ) 0 (Router.served router)) ];
               [ "reads via primary"; string_of_int (Router.primary_served router) ];
               [ "redirects"; string_of_int (Router.redirects router) ];
               [ "wait ticks"; string_of_int (Router.waits router) ];
               [ "primary fallbacks"; string_of_int (Router.fallbacks router) ];
               [ "stale reads of own writes"; string_of_int run.stale ];
             ]
            @
            let st = Router.staleness router in
            if Mgq_util.Stats.Summary.count st = 0 then []
            else
              [
                [
                  "replica staleness mean/max (frames)";
                  Printf.sprintf "%.2f / %.0f"
                    (Mgq_util.Stats.Summary.mean st)
                    (Mgq_util.Stats.Summary.max st);
                ];
              ]);
          table
            ~aligns:[ Text_table.Right; Right; Right; Right; Right ]
            ~header:[ "replica"; "received"; "applied"; "drops"; "apply faults" ]
            (List.map
               (fun r ->
                 List.map string_of_int
                   Replica.[ id r; received_lsn r; applied_lsn r; drops r; apply_faults r ])
               (Array.to_list (Cluster.replicas cluster)));
        ]
    in
    finish ~lines run.verdicts
  in
  let info =
    Cmd.info "cluster"
      ~doc:
        "Run a seeded session workload against a WAL-shipping replication cluster \
         (primary + read replicas, consistency-aware routing, optional failover)."
  in
  Cmd.v info
    Term.(
      const run $ replicas $ policy_arg $ lag $ drop $ sync $ sessions $ steps
      $ write_ratio $ seed_arg $ failover)

(* ---------------- serve ---------------- *)

(* Exit code contract (documented in --help): 0 clean shutdown, 3 the
   listen socket could not be bound (address in use, bad --host, or a
   privileged port without the privilege). *)
let serve_cmd =
  let module App = Mgq_server.App in
  let module Server = Mgq_server.Server in
  let module Router = Mgq_cluster.Router in
  let module Admission = Mgq_overload.Admission in
  let dir_opt =
    Arg.(
      value & opt (some string) None
      & info [ "dir"; "d" ] ~docv:"DIR"
          ~doc:"TSV source files to serve. Omitted: generate a crawl of $(b,--users).")
  in
  let users =
    Arg.(
      value & opt int 300
      & info [ "users"; "u" ] ~docv:"N"
          ~doc:"Users in the generated crawl when $(b,--dir) is omitted.")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port =
    Arg.(
      value & opt int 8080
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen port. 0 picks an ephemeral port; the bound port is printed.")
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers"; "w" ] ~docv:"N" ~doc:"Socket worker threads.")
  in
  let replicas =
    Arg.(value & opt int 1 & info [ "replicas"; "r" ] ~docv:"N" ~doc:"Read replicas.")
  in
  let rate =
    Arg.(
      value & opt float 0.
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Admission token-bucket rate, requests/second. 0 disables the rate bound \
             (AIMD concurrency limiting still applies).")
  in
  let burst =
    Arg.(
      value & opt float 100.
      & info [ "burst" ] ~docv:"B" ~doc:"Admission token-bucket burst capacity.")
  in
  let no_admission =
    Arg.(
      value & flag
      & info [ "no-admission" ] ~doc:"Serve unprotected: no admission control at all.")
  in
  let duration_ms =
    Arg.(
      value & opt int 0
      & info [ "duration" ] ~docv:"MS"
          ~doc:"Stop (gracefully) after this many milliseconds. 0 = run until SIGINT/SIGTERM.")
  in
  let run dir_opt users host port workers replicas policy rate burst no_admission
      duration_ms seed =
    let dataset =
      match dir_opt with
      | Some dir -> load_dataset dir
      | None -> Generator.generate (Generator.scaled ~n_users:users ())
    in
    let admission =
      if no_admission then None
      else
        Some { Mgq_overload.Admission.default_config with Admission.rate_per_s = rate; burst }
    in
    let app =
      App.create ~config:{ App.replicas; policy; admission; seed } dataset
    in
    let server =
      try
        Server.serve
          ~config:{ Server.default_config with Server.host; port; workers }
          ~handler:(App.handle app) ()
      with Server.Bind_error msg ->
        Printf.eprintf "mgq serve: %s\n%!" msg;
        exit 3
    in
    (* The parseable boot line CI scrapes for the ephemeral port. *)
    Printf.printf "mgq serve: listening on http://%s:%d (%d workers, %d replica%s, %s)\n%!"
      host (Server.port server) workers replicas
      (if replicas = 1 then "" else "s")
      (Router.policy_to_string policy);
    let stop_flag = ref false in
    let stop_signal _ = stop_flag := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal);
    let deadline =
      if duration_ms <= 0 then None
      else Some (Int64.add (Mgq_util.Stats.Timing.now_ns ()) (Int64.of_int (duration_ms * 1_000_000)))
    in
    let expired () =
      match deadline with
      | None -> false
      | Some d -> Mgq_util.Stats.Timing.now_ns () >= d
    in
    while not (!stop_flag || expired ()) do
      Thread.delay 0.05
    done;
    Server.stop server;
    Printf.printf "mgq serve: drained %d requests, bye\n%!" (Server.requests_served server)
  in
  let exits =
    Cmd.Exit.info 3 ~doc:"The listen socket could not be bound (address in use, bad \
                          $(b,--host), or insufficient privilege for the port)."
    :: Cmd.Exit.defaults
  in
  let info =
    Cmd.info "serve" ~exits
      ~doc:
        "Serve the navigation + Cypher API over HTTP/1.1 (plain Unix sockets, fixed \
         worker pool, admission control, per-request deadlines via X-Deadline-Ms)."
  in
  Cmd.v info
    Term.(
      const run $ dir_opt $ users $ host $ port $ workers $ replicas $ policy_arg $ rate
      $ burst $ no_admission $ duration_ms $ seed_arg)

(* ---------------- loadgen ---------------- *)

let loadgen_cmd =
  let module Loadgen = Mgq_server.Loadgen in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")
  in
  let port =
    Arg.(required & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let rate =
    Arg.(
      value & opt float 200.
      & info [ "rate" ] ~docv:"R" ~doc:"Offered rate, requests/second (open mode).")
  in
  let duration_ms =
    Arg.(value & opt int 2_000 & info [ "duration" ] ~docv:"MS" ~doc:"Run length.")
  in
  let connections =
    Arg.(
      value & opt int 4
      & info [ "connections"; "c" ] ~docv:"N" ~doc:"Client threads (one connection each).")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("open", Loadgen.Open); ("closed", Loadgen.Closed) ]) Loadgen.Open
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "$(b,open): Poisson arrivals at $(b,--rate) regardless of server speed \
             (latency from scheduled arrival — no coordinated omission). $(b,closed): \
             each connection sends, waits, repeats.")
  in
  let no_keep_alive =
    Arg.(
      value & flag
      & info [ "no-keep-alive" ] ~doc:"Open a fresh TCP connection per request.")
  in
  let slo_ms =
    Arg.(
      value & opt int 50
      & info [ "slo" ] ~docv:"MS" ~doc:"Latency bound for a 200 to count as goodput.")
  in
  let deadline_ms =
    Arg.(
      value & opt (some int) None
      & info [ "deadline" ] ~docv:"MS" ~doc:"Send X-Deadline-Ms on every request.")
  in
  let uids =
    Arg.(
      value & opt int 100
      & info [ "uids" ] ~docv:"N" ~doc:"Target user ids drawn uniformly from [0, N).")
  in
  let retry_attempts =
    Arg.(
      value & opt int 0
      & info [ "retry" ] ~docv:"N"
          ~doc:
            "Resilient-client mode: up to N attempts per request (reconnect on reset, \
             decorrelated-jitter backoff, honour Retry-After). 0 disables retries.")
  in
  let run host port rate duration_ms connections mode no_keep_alive slo_ms deadline_ms
      uids seed retry_attempts =
    let retry =
      if retry_attempts <= 1 then None
      else
        Some
          {
            Loadgen.default_retry with
            Loadgen.rpolicy =
              {
                Loadgen.default_retry.Loadgen.rpolicy with
                Mgq_util.Retry.max_attempts = retry_attempts;
              };
          }
    in
    let report =
      Loadgen.run
        {
          Loadgen.host;
          port;
          seed;
          duration_ns = duration_ms * 1_000_000;
          rate_per_s = rate;
          connections;
          mode;
          keep_alive = not no_keep_alive;
          slo_ns = slo_ms * 1_000_000;
          deadline_ms;
          uids = Array.init (max 1 uids) (fun i -> i);
          net = None;
          retry;
        }
    in
    let ms ns = Printf.sprintf "%.2f" (float_of_int ns /. 1e6) in
    Printf.printf "loadgen: %s loop against %s:%d for %d ms (%d connections, %s)\n"
      (match mode with Loadgen.Open -> "open" | Loadgen.Closed -> "closed")
      host port duration_ms connections
      (if no_keep_alive then "reconnect per request" else "keep-alive");
    Text_table.print
      ~aligns:Text_table.[ Right; Right; Right; Right; Right; Right; Right; Right; Right ]
      ~header:
        [
          "offered/s"; "arrivals"; "ok"; "429"; "errors"; "good/s"; "p50 ms"; "p99 ms"; "backlog";
        ]
      [
        [
          Printf.sprintf "%.0f" report.Loadgen.offered_per_s;
          string_of_int report.Loadgen.arrivals;
          string_of_int report.Loadgen.ok;
          string_of_int report.Loadgen.rejected;
          string_of_int report.Loadgen.errors;
          Printf.sprintf "%.0f" report.Loadgen.goodput_per_s;
          ms report.Loadgen.p50_ns;
          ms report.Loadgen.p99_ns;
          string_of_int report.Loadgen.max_backlog;
        ];
      ];
    if report.Loadgen.rejected > 0 then
      Printf.printf "shed: %d requests got 429 (smallest Retry-After %d s)\n"
        report.Loadgen.rejected report.Loadgen.min_retry_after_s;
    if report.Loadgen.resets + report.Loadgen.timeouts + report.Loadgen.retries > 0 then
      Printf.printf "transport: %d resets, %d timeouts, %d retries\n"
        report.Loadgen.resets report.Loadgen.timeouts report.Loadgen.retries
  in
  let info =
    Cmd.info "loadgen"
      ~doc:
        "Drive a running mgq serve instance over real sockets with the seeded \
         open-loop workload mix (or a closed loop), and report goodput, latency \
         percentiles and shed counts."
  in
  Cmd.v info
    Term.(
      const run $ host $ port $ rate $ duration_ms $ connections $ mode $ no_keep_alive
      $ slo_ms $ deadline_ms $ uids $ seed_arg $ retry_attempts)

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let module Chaos = Mgq_server.Chaos in
  let users =
    Arg.(
      value & opt (some int) None
      & info [ "users" ] ~docv:"N" ~doc:"Dataset scale (generated users).")
  in
  let rate =
    Arg.(
      value & opt (some float) None
      & info [ "rate" ] ~docv:"R" ~doc:"Offered load in requests/s during each phase.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ] ~doc:"CI-sized campaign: shorter phases, smaller dataset.")
  in
  let no_failover =
    Arg.(
      value & flag
      & info [ "no-failover" ] ~doc:"Skip the disk-crash + promotion fault.")
  in
  let report_file =
    Arg.(
      value & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the deterministic campaign report here (identical across runs with \
             one seed).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Also print wall-clock measurements (goodput, percentiles, injections).")
  in
  let run seed users rate smoke no_failover report_file verbose =
    let base = if smoke then Chaos.smoke_config else Chaos.default_config in
    let config =
      {
        base with
        Chaos.seed;
        users = Option.value ~default:base.Chaos.users users;
        rate_per_s = Option.value ~default:base.Chaos.rate_per_s rate;
        failover = base.Chaos.failover && not no_failover;
      }
    in
    let report = Chaos.run config in
    let measurements =
      if verbose then
        "-- measurements (wall-clock, not part of the determinism contract)"
        :: report.Chaos.measurements
      else []
    in
    finish ?report_file ~lines:(report.Chaos.lines @ measurements) ~report:report.Chaos.lines
      report.Chaos.verdicts
  in
  let info =
    Cmd.info "chaos"
      ~doc:
        "Run the chaos campaign against an in-process serving stack: disk crash + \
         failover, seeded network faults and slowloris attackers under open-loop \
         load, judged by durability / drain / typed-outcome / goodput / eviction \
         oracles. Exits non-zero if any oracle fails."
  in
  Cmd.v info
    Term.(const run $ seed_arg $ users $ rate $ smoke $ no_failover $ report_file $ verbose)

(* ---------------- workload listing ---------------- *)

let workload_cmd =
  let run () =
    Text_table.print
      ~header:[ "id"; "category"; "description" ]
      (List.map
         (fun q -> [ q.Workload.id; q.Workload.category; q.Workload.description ])
         Workload.all)
  in
  let info = Cmd.info "workload" ~doc:"List the Table 2 query workload." in
  Cmd.v info Term.(const run $ const ())

(* ---------------- metrics ---------------- *)

let metrics_cmd =
  let module Admission = Mgq_overload.Admission in
  let module Breaker = Mgq_overload.Breaker in
  let users =
    Arg.(
      value & opt int 300
      & info [ "users" ; "u" ] ~docv:"N" ~doc:"Users in the demo crawl.")
  in
  (* A canned workload touching every instrumented layer, then the
     process registry dumped as "name{labels} value" lines. The same
     scenarios are pinned down by unit tests (test/test_obs.ml). *)
  let run users =
    Obs.reset ();
    let dataset = Generator.generate (Generator.scaled ~n_users:users ()) in
    let ctx = Contexts.build_neo dataset in
    (* One Cypher text three times: one plan-cache miss, two hits. *)
    let text = "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid" in
    List.iter
      (fun uid ->
        ignore
          (Cypher.run ctx.Contexts.session ~params:[ ("uid", Mgq_core.Value.Int uid) ]
             text))
      [ 0; 1; 2 ];
    (* The recommendation both hand-tuned and through the traversal
       framework, so the traversal.* counters move too. *)
    ignore (Mgq_queries.Q_neo_api.q4_1 ctx ~uid:0 ~n:10);
    ignore (Mgq_queries.Q_neo_api.q4_1_traversal ctx ~uid:0 ~n:10);
    (* A burst of three concurrent offers against a concurrency limit
       of two: exactly one request is shed. *)
    let adm =
      Admission.create
        ~config:
          { Admission.default_config with Admission.initial_limit = 2.; min_limit = 2. }
        ()
    in
    for _ = 1 to 3 do
      ignore (Admission.offer adm ~now_ns:0 ~cls:Mgq_queries.Workload.Cheap)
    done;
    (* A breaker driven through its full cycle:
       closed -> open -> half-open -> closed. *)
    let b =
      Breaker.create
        ~config:
          { Breaker.failure_threshold = 2; open_for = 1; probe_successes = 1; probe_p = 1.0 }
        ~name:"demo" (Mgq_util.Rng.create 7)
    in
    Breaker.record_failure b ~now:0;
    Breaker.record_failure b ~now:0;
    ignore (Breaker.allow b ~now:0 : bool);
    ignore (Breaker.state b ~now:2);
    Breaker.record_success b ~now:2;
    print_string (Obs.render (Obs.snapshot ()))
  in
  let info =
    Cmd.info "metrics"
      ~doc:
        "Run a canned demo workload across every instrumented layer and dump the \
         metrics registry."
  in
  Cmd.v info Term.(const run $ users)

(* ---------------- audit ---------------- *)

let audit_cmd =
  let module Audit = Mgq_consistency.Audit in
  let seeds =
    Arg.(
      value & opt int 32
      & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per arm (each is a full interleaved run).")
  in
  let sessions =
    Arg.(value & opt int 4 & info [ "sessions" ] ~docv:"N" ~doc:"Concurrent logical sessions.")
  in
  let txns =
    Arg.(value & opt int 4 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per session.")
  in
  let ops = Arg.(value & opt int 4 & info [ "ops" ] ~docv:"N" ~doc:"Operations per transaction.") in
  let registers =
    Arg.(value & opt int 3 & info [ "registers" ] ~docv:"N" ~doc:"Shared register count.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Fast CI mode: 8 seeds, report only anomaly/probe summaries on stdout.")
  in
  let report_file =
    Arg.(
      value & opt (some string) None
      & info [ "report" ] ~docv:"FILE" ~doc:"Also write the full report (histories included).")
  in
  let run seeds sessions txns ops registers smoke report_file =
    let seeds = if smoke then min seeds 8 else seeds in
    let report =
      Audit.run ~seeds ~sessions ~txns_per_session:txns ~ops_per_txn:ops ~registers ()
    in
    (* --smoke prints the summary lines only: everything after the
       per-seed detail. *)
    let lines =
      if smoke then
        List.filter (fun l -> not (String.length l > 1 && l.[0] = ' ')) report.Audit.r_lines
      else report.Audit.r_lines
    in
    finish ?report_file ~lines ~report:report.Audit.r_lines report.Audit.r_verdicts
  in
  let info =
    Cmd.info "audit"
      ~doc:
        "Deterministic concurrency/crash audit: seeded interleavings under snapshot \
         isolation (and a read-uncommitted baseline), an Elle-lite anomaly checker, \
         mid-commit crash durability probes, and cluster failover. Exits non-zero on any \
         forbidden anomaly, durability failure, catalog leak, or lost acked commit."
  in
  Cmd.v info Term.(const run $ seeds $ sessions $ txns $ ops $ registers $ smoke $ report_file)

let main =
  let doc = "Microblogging queries on (simulated) graph databases" in
  let info = Cmd.info "mgq" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      generate_cmd;
      stats_cmd;
      import_cmd;
      query_cmd;
      cypher_cmd;
      analyze_cmd;
      explain_cmd;
      script_cmd;
      serve_cmd;
      loadgen_cmd;
      chaos_cmd;
      workload_cmd;
      cluster_cmd;
      metrics_cmd;
      audit_cmd;
    ]

let () = exit (Cmd.eval main)
