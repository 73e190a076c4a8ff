(* C4: consistency experiments — what isolation buys and what it costs.

   Two parts:
   - anomaly counts: the deterministic audit run under the undo-list
     baseline (read-uncommitted) vs MVCC snapshot isolation, same
     seeds, side by side;
   - versioning overhead: Table-2 read queries on the benchmark graph
     with no open transaction (the versions-empty fast path) vs with
     a pinned open writing transaction, where every read must resolve
     through the version chains. *)

open Bench_support
module Audit = Mgq_consistency.Audit
module Checker = Mgq_consistency.Checker
module Value = Mgq_core.Value

let run_anomalies () =
  section "C4a: anomaly counts, undo-list baseline vs MVCC snapshot isolation";
  let seeds = if !smoke then 4 else 32 in
  let report = Audit.run ~seeds ~failover:false () in
  let si = report.Audit.r_si in
  let bl =
    match report.Audit.r_baseline with
    | Some b -> b
    | None -> assert false
  in
  let count arm k = List.assoc k arm.Audit.arm_anomalies in
  table ~name:"c4a_anomalies"
    ~header:[ "anomaly"; "baseline (undo-list)"; "MVCC snapshot isolation" ]
    (List.map
       (fun k ->
         [
           Checker.kind_name k;
           string_of_int (count bl k);
           string_of_int (count si k) ^ (if k = Checker.Write_skew then " (permitted)" else "");
         ])
       Checker.all_kinds);
  Printf.printf
    "baseline: %d committed, %d forbidden anomalies; SI: %d committed, %d conflicts, %d \
     forbidden (%d seeds + %d crash runs)\n"
    bl.Audit.arm_committed bl.Audit.arm_forbidden si.Audit.arm_committed si.Audit.arm_conflicts
    si.Audit.arm_forbidden seeds si.Audit.arm_crash_runs;
  check_verdicts "C4a" report.Audit.r_verdicts

(* Overhead is measured on the paper's own workload: the versions-empty
   fast path must price reads exactly as before the MVCC layer, and an
   open writing transaction shows the real cost of chain resolution
   (per-read existence checks, no dense-degree shortcut). *)
let run_overhead env =
  section "C4b: versioning overhead on Table-2 reads (closed vs pinned open txn)";
  let db = env.neo.Mgq_queries.Contexts.db in
  let args =
    {
      Workload.uid = 0;
      uid2 = 1;
      tag = "topic0";
      n = 10;
      threshold = env.scale / 100;
      max_hops = 3;
    }
  in
  let queries =
    List.filter
      (fun (q : Workload.query) -> List.mem q.Workload.id [ "Q1.1"; "Q3.1"; "Q4.1"; "Q5.2" ])
      Workload.all
  in
  let rows =
    List.concat_map
      (fun (q : Workload.query) ->
        let closed = measure (neo_cost env) (fun () -> q.Workload.run_neo_api env.neo args) in
        let txn = Db.begin_txn db in
        Db.activate db txn;
        Db.set_node_property db 0 "name" (Value.Str "pinned");
        let opened = measure (neo_cost env) (fun () -> q.Workload.run_neo_api env.neo args) in
        Db.rollback_txn db txn;
        let overhead =
          if closed.db_hits = 0 then "-"
          else Printf.sprintf "%+.1f%%"
              (100. *. (float_of_int (opened.db_hits - closed.db_hits) /. float_of_int closed.db_hits))
        in
        [
          [ q.Workload.id; "no open txn" ] @ fmt_meas closed @ [ "" ];
          [ ""; "pinned open txn" ] @ fmt_meas opened @ [ overhead ];
        ])
      queries
  in
  table ~name:"c4b_versioning_overhead"
    ~header:[ "query"; "mode"; "wall ms"; "sim ms"; "db hits"; "rows"; "hit overhead" ]
    rows;
  if Db.open_txn_count db <> 0 then record_failure "C4b: leaked an open transaction"

let run_consistency env =
  run_anomalies ();
  run_overhead env
