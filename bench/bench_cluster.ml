(* C1-C3: replication cluster experiments.

   Nothing here comes from the paper (the 2015 study benchmarked
   single instances); these measure the WAL-shipping cluster layer:
   how reads spread as replicas are added, what staleness each routing
   policy accepts while still guaranteeing read-your-writes, and what
   a primary crash costs. The load-bearing oracles — zero
   acknowledged-commit loss on failover, zero read-your-writes
   violations — are the {!Mgq_cluster.Drill} verdicts, routed into
   [record_failure], so a regression fails the harness rather than
   decorating a table. *)

open Bench_support
module Cluster = Mgq_cluster.Cluster
module Drill = Mgq_cluster.Drill
module Replica = Mgq_cluster.Replica
module Router = Mgq_cluster.Router
module Wal = Mgq_neo.Wal

let run_scaleout () =
  section
    "C1: read scale-out vs replica count\n\
     round-robin routing, no lag: the per-instance read load (the\n\
     serving bottleneck) should fall as replicas are added";
  let steps = if !smoke then 300 else 3_000 in
  let rows =
    List.map
      (fun n_replicas ->
        let config =
          {
            Cluster.default_config with
            Cluster.replicas = n_replicas;
            seed = 42;
            policy = Router.Round_robin;
          }
        in
        let cluster = Cluster.create ~config () in
        let run = Drill.sessions cluster ~sessions:8 ~steps ~write_ratio:0.1 ~seed:1 in
        check_verdicts (Printf.sprintf "C1 (%d replicas)" n_replicas) run.Drill.verdicts;
        let router = Cluster.router cluster in
        let served = Router.served router in
        let replica_reads = Array.fold_left ( + ) 0 served in
        let bottleneck =
          Array.fold_left max (Router.primary_served router) served
        in
        let total = replica_reads + Router.primary_served router in
        [
          string_of_int n_replicas;
          string_of_int total;
          string_of_int replica_reads;
          string_of_int (Router.primary_served router);
          string_of_int bottleneck;
          Printf.sprintf "%.2fx"
            (float_of_int total /. float_of_int (max 1 bottleneck));
        ])
      (if !smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ])
  in
  table ~name:"cluster_scaleout"
    ~aligns:[ Text_table.Right; Right; Right; Right; Right; Right ]
    ~header:
      [ "replicas"; "reads"; "via replicas"; "via primary"; "bottleneck"; "scale-out" ]
    rows

let run_staleness () =
  section
    "C2: staleness per routing policy\n\
     laggy replicas (2-tick latency, 5% dropped shipments): what each\n\
     policy pays in redirects/waits to keep read-your-writes intact";
  let steps = if !smoke then 300 else 3_000 in
  let rows =
    List.map
      (fun policy ->
        let config =
          {
            Cluster.default_config with
            Cluster.replicas = 3;
            seed = 42;
            lag = Replica.Latency { ticks = 2 };
            drop_p = 0.05;
            policy;
          }
        in
        let cluster = Cluster.create ~config () in
        let run = Drill.sessions cluster ~sessions:8 ~steps ~write_ratio:0.25 ~seed:2 in
        check_verdicts
          (Printf.sprintf "C2 (%s)" (Router.policy_to_string policy))
          run.Drill.verdicts;
        let r = Cluster.router cluster in
        let st = Router.staleness r in
        [
          Router.policy_to_string policy;
          Printf.sprintf "%.2f" (Mgq_util.Stats.Summary.mean st);
          Printf.sprintf "%.1f" (Mgq_util.Stats.Summary.percentile st 95.0);
          Printf.sprintf "%.0f" (Mgq_util.Stats.Summary.max st);
          string_of_int (Router.redirects r);
          string_of_int (Router.waits r);
          string_of_int (Router.fallbacks r);
        ])
      [ Router.Round_robin; Router.Least_lagged; Router.Sticky ]
  in
  table ~name:"cluster_staleness"
    ~aligns:[ Text_table.Left; Right; Right; Right; Right; Right; Right ]
    ~header:
      [ "policy"; "staleness mean"; "p95"; "max"; "redirects"; "waits"; "fallbacks" ]
    rows

let run_failover () =
  section
    "C3: failover sweep\n\
     kill the primary at a seeded write, promote the most-advanced\n\
     replica; acknowledged commits lost must be zero in every trial";
  let trials = if !smoke then 6 else 30 in
  let runs =
    List.init trials (fun i ->
        let seed = i + 1 in
        let config =
          {
            Cluster.default_config with
            Cluster.replicas = 3;
            seed;
            lag = Replica.Latency { ticks = 1 };
            drop_p = 0.1;
            policy = Router.Least_lagged;
          }
        in
        let t = Drill.failover_trial (Cluster.create ~config ()) ~writes:80 ~seed in
        check_verdicts (Printf.sprintf "C3 seed %d" seed) t.Drill.verdicts;
        t)
  in
  let total f = string_of_int (List.fold_left (fun n t -> n + f t) 0 runs) in
  let promoted f = total (fun t -> f t.Drill.promotion) in
  let downtime = Mgq_util.Stats.Summary.create () in
  List.iter
    (fun t ->
      Mgq_util.Stats.Summary.add downtime (float_of_int t.Drill.promotion.Cluster.downtime_ticks))
    runs;
  table ~name:"cluster_failover"
    ~aligns:[ Text_table.Left; Right ]
    ~header:[ "metric"; "value" ]
    [
      [ "failover trials"; string_of_int trials ];
      [ "acknowledged commits (total)"; total (fun t -> List.length t.Drill.acked) ];
      [ "acknowledged commits lost"; promoted (fun p -> p.Cluster.lost_acked) ];
      [
        "promoted logs scanning clean";
        promoted (fun p -> Bool.to_int (p.Cluster.stop = Wal.Clean)) ^ "/" ^ string_of_int trials;
      ];
      [ "WAL tail frames replayed (total)"; promoted (fun p -> p.Cluster.tail_applied) ];
      [ "mean downtime (ticks)"; Printf.sprintf "%.1f" (Mgq_util.Stats.Summary.mean downtime) ];
      [ "max downtime (ticks)"; Printf.sprintf "%.0f" (Mgq_util.Stats.Summary.max downtime) ];
    ]

let run_cluster () =
  run_scaleout ();
  run_staleness ();
  run_failover ()
