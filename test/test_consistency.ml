(* The concurrency/crash audit harness: deterministic scheduler,
   Elle-lite checker, durability and failover probes — plus the MVCC
   transaction layer they exercise. *)

module Db = Mgq_neo.Db
module Sched = Mgq_consistency.Sched
module History = Mgq_consistency.History
module Checker = Mgq_consistency.Checker
module Audit = Mgq_consistency.Audit
module Value = Mgq_core.Value
module Property = Mgq_core.Property
module Obs = Mgq_obs.Obs

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let si_cfg ?crash_at_commit seed =
  Sched.config ?crash_at_commit ~seed ~isolation:Db.Snapshot ()

let ru_cfg seed = Sched.config ~seed ~isolation:Db.Read_uncommitted ()

(* ---------------- MVCC transaction semantics ---------------- *)

let mk_reg db v =
  Db.create_node db ~label:"reg" (Property.of_list [ ("v", Value.Int v) ])

let read_v db n = Sched.as_int (Db.node_property db n "v")

let test_snapshot_read_stability () =
  let db = Db.create () in
  let n = mk_reg db 1 in
  let t1 = Db.begin_txn db in
  Db.activate db t1;
  check Alcotest.int "t1 sees initial" 1 (read_v db n);
  (* another transaction commits an update *)
  let t2 = Db.begin_txn db in
  Db.activate db t2;
  Db.set_node_property db n "v" (Value.Int 2);
  Db.commit_txn db t2;
  Db.activate db t1;
  check Alcotest.int "t1 still sees its snapshot" 1 (read_v db n);
  Db.rollback_txn db t1;
  check Alcotest.int "post-rollback latest wins" 2 (read_v db n)

let test_first_committer_wins () =
  let db = Db.create () in
  let n = mk_reg db 1 in
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  Db.activate db t1;
  Db.set_node_property db n "v" (Value.Int 10);
  Db.activate db t2;
  (* second updater loses immediately: t1 holds an uncommitted claim *)
  (try
     Db.set_node_property db n "v" (Value.Int 20);
     Alcotest.fail "expected Tx_conflict"
   with Db.Tx_conflict c ->
     check Alcotest.bool "conflict names the key" true
       (String.length c.Db.c_key > 0));
  Db.rollback_txn db t2;
  Db.activate db t1;
  Db.commit_txn db t1;
  check Alcotest.int "winner's write survives" 10 (read_v db n);
  check Alcotest.int "no open txns" 0 (Db.open_txn_count db)

(* A write against a key committed after the writer's snapshot loses
   at once; the unit of work then runs again in a fresh transaction,
   as [Mgq_util.Retry] callers do. *)
let test_conflict_counters_and_retry () =
  let db = Db.create () in
  let n = mk_reg db 1 in
  let conflicts0 = Obs.Counter.value (Obs.counter "db.tx_conflicts") in
  let txn = Db.begin_txn db in
  (* sabotage it with a competing committed write *)
  let saboteur = Db.begin_txn db in
  Db.activate db saboteur;
  Db.set_node_property db n "v" (Value.Int 99);
  Db.commit_txn db saboteur;
  (* back to the first txn, whose snapshot is now stale *)
  Db.activate db txn;
  check Alcotest.int "stale snapshot" 1 (read_v db n);
  (match Db.set_node_property db n "v" (Value.Int 101) with
  | () -> Alcotest.fail "expected Tx_conflict"
  | exception Db.Tx_conflict c ->
    check Alcotest.int "conflict names the loser" (Db.txn_id txn) c.Db.c_txn);
  check Alcotest.bool "db.tx_conflicts incremented" true
    (Obs.Counter.value (Obs.counter "db.tx_conflicts") > conflicts0);
  Db.rollback_txn db txn;
  check Alcotest.int "no open txns" 0 (Db.open_txn_count db);
  Db.with_tx db (fun () -> Db.set_node_property db n "v" (Value.Int 102));
  check Alcotest.int "rerun committed" 102 (read_v db n)

(* A lone transaction publishes no version entries, so its reads of
   degrees and adjacency take the same in-place path, at the same db
   hits, as reads with no transaction open. *)
let test_lone_writer_reads_in_place () =
  let db = Db.create () in
  let hub = mk_reg db 0 in
  let edge_to dst = ignore (Db.create_edge db ~etype:"e" ~src:hub ~dst Property.empty : int) in
  List.iter (fun v -> edge_to (mk_reg db v)) [ 1; 2; 3; 4 ];
  let cost = Mgq_storage.Sim_disk.cost (Db.disk db) in
  let hits () = (Mgq_storage.Cost_model.snapshot cost).db_hits in
  let probe () =
    let h0 = hits () in
    let got = (Db.out_degree db hub, Seq.length (Db.neighbors db hub Mgq_core.Types.Out)) in
    (got, hits () - h0)
  in
  let inside = Db.with_tx db (fun () -> edge_to (mk_reg db 5); probe ()) in
  check Alcotest.(pair int int) "own edge counted" (5, 5) (fst inside);
  check Alcotest.int "same db hits as with no transaction" (snd (probe ())) (snd inside)

(* A second transaction that begins while a lone writer is open sees
   the writer's before-image, and its own write to that key loses. *)
let test_second_viewer_publishes () =
  let db = Db.create () in
  let n = mk_reg db 1 in
  let t1 = Db.begin_txn db in
  Db.set_node_property db n "v" (Value.Int 2);
  let t2 = Db.begin_txn db in
  check Alcotest.int "t2 sees the before-image" 1 (read_v db n);
  (match Db.set_node_property db n "v" (Value.Int 3) with
  | () -> Alcotest.fail "expected Tx_conflict"
  | exception Db.Tx_conflict c ->
    check Alcotest.int "t2 loses" (Db.txn_id t2) c.Db.c_txn);
  Db.rollback_txn db t2;
  Db.activate db t1;
  check Alcotest.int "t1 sees its write" 2 (read_v db n);
  Db.commit_txn db t1;
  check Alcotest.int "committed" 2 (read_v db n);
  (* [deactivate] is a second viewer too: the latest committed state. *)
  let t3 = Db.begin_txn db in
  Db.set_node_property db n "v" (Value.Int 4);
  Db.deactivate db;
  check Alcotest.int "outside reader sees the commit" 2 (read_v db n);
  Db.rollback_txn db t3;
  check Alcotest.int "no open txns" 0 (Db.open_txn_count db)

(* The conflict check reads the head of the key's chain: a commit
   newer than the writer's snapshot (here an auto-commit write) makes
   the write fail, one at or before the snapshot does not. *)
let test_stale_write_fails_at_chain_head () =
  let db = Db.create () in
  let n1 = mk_reg db 1 and n2 = mk_reg db 1 in
  let pin = Db.begin_txn db in
  let early = Db.begin_txn db in
  Db.set_node_property db n2 "v" (Value.Int 7);
  Db.commit_txn db early;
  let late = Db.begin_txn db in
  Db.deactivate db;
  Db.set_node_property db n1 "v" (Value.Int 9);
  Db.activate db late;
  Db.set_node_property db n2 "v" (Value.Int 8);
  (match Db.set_node_property db n1 "v" (Value.Int 10) with
  | () -> Alcotest.fail "expected Tx_conflict"
  | exception Db.Tx_conflict c ->
    check Alcotest.int "the stale writer loses" (Db.txn_id late) c.Db.c_txn;
    check Alcotest.string "reason" "overwritten by a commit after this snapshot" c.Db.c_reason);
  Db.activate db pin;
  check Alcotest.(pair int int) "the pinned snapshot" (1, 1) (read_v db n1, read_v db n2);
  Db.rollback_txn db late;
  Db.rollback_txn db pin;
  check Alcotest.(pair int int) "latest committed" (9, 7) (read_v db n1, read_v db n2)

(* ---------------- scheduler determinism ---------------- *)

let history_fingerprint run =
  String.concat "|" (History.to_lines run.Sched.history)

let test_determinism () =
  List.iter
    (fun seed ->
      let a = Sched.run (si_cfg seed) and b = Sched.run (si_cfg seed) in
      check Alcotest.string
        (Printf.sprintf "seed %d reproduces" seed)
        (history_fingerprint a) (history_fingerprint b))
    [ 0; 1; 7; 13 ];
  let a = Sched.run (si_cfg 0) and b = Sched.run (si_cfg 1) in
  check Alcotest.bool "different seeds differ" true
    (history_fingerprint a <> history_fingerprint b)

(* ---------------- checker vs the two isolation arms ---------------- *)

let test_si_no_forbidden_anomalies () =
  for seed = 0 to 31 do
    let run = Sched.run (si_cfg seed) in
    let anomalies = Checker.check ~initial:run.Sched.initial run.Sched.history in
    let bad = List.filter Checker.forbidden anomalies in
    if bad <> [] then
      Alcotest.failf "seed %d: %s" seed
        (String.concat "; "
           (List.map (fun (a : Checker.anomaly) -> a.Checker.a_detail) bad));
    (* a committed run must also replay to its commit-order expectation *)
    check
      Alcotest.(list (pair int int))
      (Printf.sprintf "seed %d final state" seed)
      (Sched.committed_expectation run) (Sched.final_state run)
  done

let test_baseline_detects_anomalies () =
  let totals = Hashtbl.create 8 in
  for seed = 0 to 31 do
    let run = Sched.run (ru_cfg seed) in
    List.iter
      (fun (a : Checker.anomaly) ->
        Hashtbl.replace totals a.Checker.a_kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt totals a.Checker.a_kind)))
      (Checker.check ~initial:run.Sched.initial run.Sched.history)
  done;
  let got k = Option.value ~default:0 (Hashtbl.find_opt totals k) in
  check Alcotest.bool "undo-list baseline admits dirty reads" true (got Checker.Dirty_read > 0);
  check Alcotest.bool "and non-repeatable reads" true (got Checker.Non_repeatable_read > 0)

let test_checker_flags_handmade_lost_update () =
  (* Two committed RMWs off the same base — exactly one lost update. *)
  let h = History.create () in
  let r k t = History.record h ~session:t ~txn:t k in
  r History.Begin 1;
  r History.Begin 2;
  r (History.Read { reg = 0; value = 100 }) 1;
  r (History.Read { reg = 0; value = 100 }) 2;
  r (History.Write { reg = 0; value = 101 }) 1;
  r History.Commit_ok 1;
  r (History.Write { reg = 0; value = 102 }) 2;
  r History.Commit_ok 2;
  let anomalies = Checker.check ~initial:[ (0, 100) ] h in
  check Alcotest.int "one lost update" 1 (Checker.count Checker.Lost_update anomalies)

let test_checker_flags_handmade_write_skew () =
  let h = History.create () in
  let r k t = History.record h ~session:t ~txn:t k in
  r History.Begin 1;
  r History.Begin 2;
  r (History.Read { reg = 0; value = 100 }) 1;
  r (History.Read { reg = 1; value = 200 }) 2;
  r (History.Write { reg = 1; value = 201 }) 1;
  r (History.Write { reg = 0; value = 101 }) 2;
  r History.Commit_ok 1;
  r History.Commit_ok 2;
  let anomalies = Checker.check ~initial:[ (0, 100); (1, 200) ] h in
  check Alcotest.int "one write skew" 1 (Checker.count Checker.Write_skew anomalies);
  check Alcotest.bool "write skew is permitted" true
    (List.for_all (fun a -> not (Checker.forbidden a)) anomalies)

(* ---------------- durability ---------------- *)

let test_durability_no_crash () =
  for seed = 0 to 15 do
    let run = Sched.run (si_cfg seed) in
    let db' = Db.recover run.Sched.db in
    let recovered =
      List.mapi
        (fun r node -> (r, Sched.as_int (Db.node_property db' node "v")))
        (Array.to_list run.Sched.reg_nodes)
    in
    check
      Alcotest.(list (pair int int))
      (Printf.sprintf "seed %d acked commits survive recovery" seed)
      (Sched.committed_expectation run) recovered
  done

let test_durability_mid_commit_crash () =
  let crashed = ref 0 in
  for seed = 0 to 15 do
    let run = Sched.run (si_cfg ~crash_at_commit:(1 + (seed mod 3)) seed) in
    if run.Sched.crashed then begin
      incr crashed;
      let db' = Db.recover run.Sched.db in
      let recovered =
        List.mapi
          (fun r node -> (r, Sched.as_int (Db.node_property db' node "v")))
          (Array.to_list run.Sched.reg_nodes)
      in
      let e0 = Sched.committed_expectation run in
      let e1 =
        match run.Sched.crash_commit_writes with
        | None -> e0
        | Some ws ->
          let m = Hashtbl.create 8 in
          List.iter (fun (r, v) -> Hashtbl.replace m r v) e0;
          List.iter (fun (r, v) -> Hashtbl.replace m r v) ws;
          List.map (fun (r, _) -> (r, Hashtbl.find m r)) e0
      in
      if recovered <> e0 && recovered <> e1 then
        Alcotest.failf "seed %d: recovered state matches neither candidate" seed
    end
  done;
  check Alcotest.bool "crash plans actually fired" true (!crashed > 8)

(* ---------------- end-to-end audit ---------------- *)

let test_audit_passes () =
  let report = Audit.run ~seeds:8 () in
  let verdicts = report.Audit.r_verdicts in
  if not (Mgq_util.Verdict.passed verdicts) then
    Alcotest.failf "audit failed:\n%s" (String.concat "\n" report.Audit.r_lines);
  check
    Alcotest.(list string)
    "one verdict per oracle"
    [
      "no-forbidden-anomaly";
      "durable";
      "no-catalog-leak";
      "snapshot-round-trip";
      "failover-lost-nothing";
      "baseline-self-test";
    ]
    (List.map (fun (v : Mgq_util.Verdict.t) -> v.name) verdicts);
  check Alcotest.string "report's verdict line agrees with the verdicts"
    (if Mgq_util.Verdict.passed verdicts then "verdict: PASS" else "verdict: FAIL")
    (List.find (String.starts_with ~prefix:"verdict: ") report.Audit.r_lines);
  check Alcotest.int "no forbidden anomalies" 0 report.Audit.r_si.Audit.arm_forbidden;
  check Alcotest.int "no lost acked commits" 0 report.Audit.r_failover_lost;
  match report.Audit.r_baseline with
  | None -> Alcotest.fail "baseline arm missing"
  | Some b ->
    check Alcotest.bool "baseline caught anomalies" true (b.Audit.arm_forbidden > 0)

(* Every seed of the failover arm must really fail over: a seed whose
   armed crash never fired would check nothing and still pass. *)
let test_every_failover_seed_promotes () =
  let report = Audit.run ~baseline:false () in
  let never_fired l =
    let sub = "never fired" in
    let n = String.length sub in
    let rec at i = i + n <= String.length l && (String.sub l i n = sub || at (i + 1)) in
    at 0
  in
  List.iter
    (fun l -> if never_fired l then Alcotest.failf "a failover seed did not fail over: %s" l)
    report.Audit.r_lines;
  check Alcotest.string "32 seeds, 32 promotions"
    "failover: runs=32 promotions=32 lost_acked=0 failures=0"
    (List.find (String.starts_with ~prefix:"failover: ") report.Audit.r_lines)

(* ---------------- qcheck: replay equivalence ---------------- *)

(* The satellite property: any seeded concurrent history the checker
   accepts replays, transaction by transaction in commit order, to
   the same final register state on a fresh single-session database. *)
let sequential_replay run =
  let db = Db.create () in
  let nodes =
    List.map
      (fun (r, v) ->
        (r, Db.create_node db ~label:"reg" (Property.of_list [ ("v", Value.Int v) ])))
      run.Sched.initial
  in
  List.iter
    (fun (_, writes) ->
      Db.with_tx db (fun () ->
          List.iter
            (fun (r, v) ->
              Db.set_node_property db (List.assoc r nodes) "v" (Value.Int v))
            writes))
    run.Sched.acked;
  List.map (fun (r, n) -> (r, Sched.as_int (Db.node_property db n "v"))) nodes

let prop_commit_order_replay =
  QCheck.Test.make ~name:"accepted SI history = its commit-order sequential replay"
    ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let run = Sched.run (si_cfg seed) in
      let anomalies = Checker.check ~initial:run.Sched.initial run.Sched.history in
      (* accepted = no forbidden anomaly; SI must deliver that on every seed *)
      List.for_all (fun a -> not (Checker.forbidden a)) anomalies
      && Sched.final_state run = sequential_replay run)

let () =
  Alcotest.run "consistency"
    [
      ( "mvcc",
        [
          Alcotest.test_case "snapshot read stability" `Quick test_snapshot_read_stability;
          Alcotest.test_case "first committer wins" `Quick test_first_committer_wins;
          Alcotest.test_case "conflict counters and retry" `Quick
            test_conflict_counters_and_retry;
          Alcotest.test_case "lone writer reads in place" `Quick test_lone_writer_reads_in_place;
          Alcotest.test_case "second viewer publishes" `Quick test_second_viewer_publishes;
          Alcotest.test_case "stale write fails at chain head" `Quick
            test_stale_write_fails_at_chain_head;
        ] );
      ( "scheduler",
        [ Alcotest.test_case "seeded determinism" `Quick test_determinism ] );
      ( "checker",
        [
          Alcotest.test_case "SI: no forbidden anomalies (32 seeds)" `Quick
            test_si_no_forbidden_anomalies;
          Alcotest.test_case "baseline: anomalies detected" `Quick
            test_baseline_detects_anomalies;
          Alcotest.test_case "handmade lost update" `Quick
            test_checker_flags_handmade_lost_update;
          Alcotest.test_case "handmade write skew (permitted)" `Quick
            test_checker_flags_handmade_write_skew;
        ] );
      ( "durability",
        [
          Alcotest.test_case "acked commits survive recovery" `Quick test_durability_no_crash;
          Alcotest.test_case "mid-commit crash: all-or-nothing" `Quick
            test_durability_mid_commit_crash;
        ] );
      ( "audit",
        [
          Alcotest.test_case "end-to-end audit passes (8 seeds)" `Quick test_audit_passes;
          Alcotest.test_case "every failover seed promotes (32 seeds)" `Quick
            test_every_failover_seed_promotes;
          qtest prop_commit_order_replay;
        ] );
    ]
