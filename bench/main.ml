(* Bench harness entry point.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table1      # one experiment
     MGQ_BENCH_USERS=2000 dune exec bench/main.exe

   Experiment ids follow DESIGN.md's index: table1 table2 fig2 fig3
   fig4ab fig4cd fig4ef fig4gh disc-variants disc-plancache disc-topn
   disc-coldcache micro import. *)

open Bench_support

(* Most experiments need the shared generated-dataset environment;
   the cluster experiments build their own tiny instances, so [env]
   is forced lazily and a cluster-only invocation skips the setup. *)
let e run = fun env -> run (Lazy.force env)

let experiments =
  [
    ("table1", ("Table 1: dataset characteristics", e Bench_tables.run_table1));
    ("table2", ("Table 2: query workload on both systems", e Bench_tables.run_table2));
    ("import", ("Import summary (Section 3.2)", e Bench_tables.run_import_summary));
    ("fig2", ("Figure 2: record-store import series", e Bench_figures.run_fig2));
    ("fig3", ("Figure 3: bitmap-engine import series", e Bench_figures.run_fig3));
    ("fig4ab", ("Figure 4(a,b): Q3.1 sweep", e Bench_figures.run_fig4ab));
    ("fig4cd", ("Figure 4(c,d): Q4.1 sweep", e Bench_figures.run_fig4cd));
    ("fig4ef", ("Figure 4(e,f): Q5.2 sweep", e Bench_figures.run_fig4ef));
    ("fig4gh", ("Figure 4(g,h): Q6.1 sweep", e Bench_figures.run_fig4gh));
    ("disc-variants", ("D1: Cypher phrasings", e Bench_discussion.run_variants));
    ("disc-plancache", ("D2: plan cache", e Bench_discussion.run_plancache));
    ("disc-topn", ("D3: top-n overhead", e Bench_discussion.run_topn));
    ("disc-coldcache", ("D4: cold cache", e Bench_discussion.run_coldcache));
    ( "disc-navigation",
      ("D5: raw navigation vs Traversal classes", e Bench_discussion.run_navigation_vs_traversal)
    );
    ("micro", ("Bechamel micro-benchmarks", e Bench_micro.run_micro));
    ("estimator", ("E4: estimator accuracy (q-error)", e Bench_estimator.run_estimator));
    ("updates", ("E1: streaming update workload (Section 5)", e Bench_extensions.run_updates));
    ("ablation-seek", ("A1: index seek vs label scan", e Bench_extensions.run_ablation_seek));
    ("ablation-pool", ("A2: buffer-pool size sweep", e Bench_extensions.run_ablation_pool));
    ( "ablation-placement",
      ("A3: semantic record placement (Section 5)", e Bench_extensions.run_ablation_placement)
    );
    ( "ablation-dense",
      ("A4: dense-node relationship groups", e Bench_extensions.run_ablation_dense) );
    ("analytics", ("E2: whole-graph analytics", e Bench_extensions.run_analytics));
    ("relational", ("E3: relational baseline comparison", e Bench_extensions.run_relational));
    ( "robustness",
      ("R1: crash recovery, query budgets, retried ingestion", e Bench_robustness.run_robustness)
    );
    ( "cluster",
      ( "C1-C3: WAL-shipping replication (scale-out, staleness, failover)",
        fun _env -> Bench_cluster.run_cluster () ) );
    ( "overload",
      ( "O1-O3: overload protection (admission, breakers, degradation)",
        e Bench_overload.run_overload ) );
    ( "serving",
      ( "S1-S2: HTTP serving layer over real sockets (shed knee, keep-alive)",
        fun _env -> Bench_serving.run_serving () ) );
    ( "consistency",
      ( "C4: isolation anomaly counts and versioning overhead",
        e Bench_consistency.run_consistency ) );
    ( "chaos",
      ( "N1-N2: chaos harness (slow-client defence, composed fault campaign)",
        fun _env -> Bench_chaos.run_chaos () ) );
    ( "alloc",
      ( "A1': minor-heap words per db hit on the packed read path",
        fun _env -> Bench_alloc.run_alloc () ) );
  ]

let usage () =
  print_endline "usage: main.exe [--smoke] [all | <experiment> ...]";
  print_endline "  --smoke   CI-sized runs: tiny trial counts, same oracles";
  print_endline "experiments:";
  List.iter (fun (id, (title, _)) -> Printf.printf "  %-16s %s\n" id title) experiments

let () =
  let args =
    List.filter
      (fun a ->
        if a = "--smoke" then begin
          Bench_support.smoke := true;
          false
        end
        else true)
      (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    match args with
    | [] | "all" :: _ -> List.map fst experiments
    | ids ->
      if List.mem "--help" ids || List.mem "-h" ids then begin
        usage ();
        exit 0
      end;
      List.iter
        (fun id ->
          if not (List.mem_assoc id experiments) then begin
            Printf.eprintf "unknown experiment %S\n" id;
            usage ();
            exit 2
          end)
        ids;
      ids
  in
  let scale =
    match Sys.getenv_opt "MGQ_BENCH_USERS" with
    | Some s -> ( match int_of_string_opt s with Some n when n > 10 -> n | _ -> default_users)
    | None -> default_users
  in
  let scale = if !Bench_support.smoke then min scale 800 else scale in
  Printf.printf "mgq bench harness - reproducing 'Microblogging Queries on Graph Databases'\n";
  Printf.printf "scale: %d users (paper: 24.8M); set MGQ_BENCH_USERS to change%s\n%!" scale
    (if !Bench_support.smoke then " [smoke]" else "");
  let env = lazy (build_env scale) in
  (* Run every requested experiment even when one fails mid-way: an
     exception becomes an oracle failure for that experiment instead
     of aborting before later experiments get to report. *)
  let verdicts =
    List.map
      (fun id ->
        let _, run = List.assoc id experiments in
        let before = List.length !Bench_support.failures in
        (try run env
         with exn ->
           Bench_support.record_failure "%s: uncaught exception %s" id
             (Printexc.to_string exn));
        (id, List.length !Bench_support.failures - before))
      requested
  in
  Bench_support.export_metrics "metrics";
  Bench_support.section "verdict summary";
  Bench_support.table ~name:"verdicts" ~header:[ "experiment"; "oracles"; "mismatches" ]
    (List.map
       (fun (id, n) -> [ id; (if n = 0 then "PASS" else "FAIL"); string_of_int n ])
       verdicts);
  match List.rev !Bench_support.failures with
  | [] -> Printf.printf "\ndone.\n"
  | fs ->
    Printf.printf "\ndone, with %d oracle mismatch(es):\n" (List.length fs);
    List.iter (fun f -> Printf.printf "  - %s\n" f) fs;
    exit 1
