module Db = Mgq_neo.Db
module Catalog = Mgq_catalog.Catalog
module Cluster = Mgq_cluster.Cluster
module Fault = Mgq_storage.Fault
module Value = Mgq_core.Value
module Property = Mgq_core.Property
module Verdict = Mgq_util.Verdict

type arm = {
  arm_isolation : Db.isolation;
  arm_seeds : int;
  arm_anomalies : (Checker.anomaly_kind * int) list;
  arm_forbidden : int;
  arm_committed : int;
  arm_conflicts : int;
  arm_aborted : int;
  arm_durability_failures : int;
  arm_catalog_leaks : int;
  arm_snapshot_failures : int;
  arm_crash_runs : int;
}

type report = {
  r_si : arm;
  r_baseline : arm option;
  r_failover_lost : int;
  r_verdicts : Verdict.t list;
  r_lines : string list;
}

let isolation_name = function
  | Db.Snapshot -> "snapshot"
  | Db.Read_uncommitted -> "read-uncommitted"

let state_to_string st =
  "{" ^ String.concat "; " (List.map (fun (r, v) -> Printf.sprintf "reg%d=%d" r v) st) ^ "}"

(* Recovered-state candidates for a run. E0: exactly the acked
   commits survive. E1 (crashed-commit runs only): the transaction
   whose commit the crash interrupted also survives — its WAL frame
   is one CRC-checked record, so recovery sees it entirely or not at
   all, never a prefix. *)
let candidates run =
  let e0 = Sched.committed_expectation run in
  match run.Sched.crash_commit_writes with
  | None -> [ ("E0", e0) ]
  | Some ws ->
    let m = Hashtbl.create 8 in
    List.iter (fun (r, v) -> Hashtbl.replace m r v) e0;
    List.iter (fun (r, v) -> Hashtbl.replace m r v) ws;
    [ ("E0", e0); ("E1", List.map (fun (r, _) -> (r, Hashtbl.find m r)) e0) ]

let recovered_state run =
  let db' = Db.recover run.Sched.db in
  List.mapi
    (fun r node -> (r, Sched.as_int (Db.node_property db' node "v")))
    (Array.to_list run.Sched.reg_nodes)

(* Every acked commit survives Db.recover; no aborted effect does;
   a crash-interrupted commit is all-or-nothing. Returns an error
   description, or None when durable. *)
let durability_probe run =
  let recovered = recovered_state run in
  let cands = candidates run in
  if List.exists (fun (_, c) -> c = recovered) cands then
    if (not run.Sched.crashed) && Sched.final_state run <> recovered then
      Some
        (Printf.sprintf "live %s <> recovered %s"
           (state_to_string (Sched.final_state run))
           (state_to_string recovered))
    else None
  else
    Some
      (Printf.sprintf "recovered %s matches no candidate (%s)" (state_to_string recovered)
         (String.concat " | "
            (List.map (fun (n, c) -> n ^ "=" ^ state_to_string c) cands)))

(* Rolled-back transactions must not have leaked stat deltas into the
   catalog: the incrementally maintained dump must equal the dump of
   a from-scratch rebuild (dumps exclude the epoch). *)
let catalog_probe run =
  let db = run.Sched.db in
  let before = Catalog.dump (Db.stats db) in
  Db.analyze db;
  let after = Catalog.dump (Db.stats db) in
  if before = after then None
  else Some "catalog drifted from rebuilt statistics (rolled-back txn leaked)"

(* The binary checkpoint image must reproduce the live state: save
   the run's database through the snapshot codec, load it back, and
   compare every register against the live reading. *)
let snapshot_probe run =
  let path = Filename.temp_file "mgq_audit" ".neo" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Db.save run.Sched.db path;
      let db' = Db.load path in
      let reloaded =
        List.mapi
          (fun r node -> (r, Sched.as_int (Db.node_property db' node "v")))
          (Array.to_list run.Sched.reg_nodes)
      in
      let live = Sched.final_state run in
      if reloaded = live then None
      else
        Some
          (Printf.sprintf "reloaded %s <> live %s" (state_to_string reloaded)
             (state_to_string live)))

let run_arm ~isolation ~seeds ~sessions ~txns_per_session ~ops_per_txn ~registers ~crashes
    ~probes out =
  let totals = Hashtbl.create 8 in
  let add k n =
    Hashtbl.replace totals k (n + Option.value ~default:0 (Hashtbl.find_opt totals k))
  in
  let forbidden = ref 0 in
  let committed = ref 0 and conflicts = ref 0 and aborted = ref 0 in
  let durability_failures = ref 0 and catalog_leaks = ref 0 and crash_runs = ref 0 in
  let snapshot_failures = ref 0 in
  let line fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let one ~seed ~crash_at_commit =
    let cfg =
      Sched.config ~sessions ~txns_per_session ~ops_per_txn ~registers ?crash_at_commit ~seed
        ~isolation ()
    in
    let run = Sched.run cfg in
    committed := !committed + run.Sched.committed;
    conflicts := !conflicts + run.Sched.conflicts;
    aborted := !aborted + run.Sched.aborted;
    if run.Sched.crashed then incr crash_runs;
    let anomalies = Checker.check ~initial:run.Sched.initial run.Sched.history in
    List.iter (fun (k, n) -> add k n) (Checker.summary anomalies);
    let bad = List.filter Checker.forbidden anomalies in
    forbidden := !forbidden + List.length bad;
    let failures = ref [] in
    if probes then begin
      (match durability_probe run with
      | None -> ()
      | Some msg ->
        incr durability_failures;
        failures := ("durability: " ^ msg) :: !failures);
      if not run.Sched.crashed then begin
        (match catalog_probe run with
        | None -> ()
        | Some msg ->
          incr catalog_leaks;
          failures := ("catalog: " ^ msg) :: !failures);
        match snapshot_probe run with
        | None -> ()
        | Some msg ->
          incr snapshot_failures;
          failures := ("snapshot: " ^ msg) :: !failures
      end
    end;
    line "  seed %3d%s: %d committed, %d conflicts, %d anomalies (%d forbidden)" seed
      (if crash_at_commit <> None then " [crash]" else "")
      run.Sched.committed run.Sched.conflicts (List.length anomalies) (List.length bad);
    (* Histories are the artifact that makes a red run debuggable —
       dump them only where something went wrong (SI arm) or where
       the anomalies are the point (baseline arm). *)
    if (isolation = Db.Snapshot && (bad <> [] || !failures <> [])) || (isolation <> Db.Snapshot && bad <> [])
    then begin
      List.iter
        (fun (a : Checker.anomaly) ->
          line "    %s t%d: %s" (Checker.kind_name a.Checker.a_kind) a.Checker.a_txn
            a.Checker.a_detail)
        anomalies;
      List.iter (fun f -> line "    FAIL %s" f) !failures;
      if isolation = Db.Snapshot then
        List.iter (fun l -> line "    | %s" l) (History.to_lines run.Sched.history)
    end
  in
  line "arm %s (%d seeds%s):" (isolation_name isolation) seeds
    (if crashes then ", plus a crashed-commit run per seed" else "");
  for seed = 0 to seeds - 1 do
    one ~seed ~crash_at_commit:None;
    if crashes then one ~seed ~crash_at_commit:(Some (1 + (seed mod 4)))
  done;
  {
    arm_isolation = isolation;
    arm_seeds = seeds;
    arm_anomalies = List.map (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt totals k))) Checker.all_kinds;
    arm_forbidden = !forbidden;
    arm_committed = !committed;
    arm_conflicts = !conflicts;
    arm_aborted = !aborted;
    arm_durability_failures = !durability_failures;
    arm_catalog_leaks = !catalog_leaks;
    arm_snapshot_failures = !snapshot_failures;
    arm_crash_runs = !crash_runs;
  }

(* Kill the primary mid-run with a commit in flight; after promotion
   no acknowledged write may be missing (lost_acked = 0), and the
   register must read as the last acked value or the one in-flight
   write that was never acknowledged. *)
let failover_probe ~seed out =
  let line fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let cl = Cluster.create () in
  let session = Cluster.session cl 0 in
  let node =
    Cluster.write cl ~session (fun db ->
        Db.create_node db ~label:"reg"
          (Property.of_list [ ("reg", Value.Int 0); ("v", Value.Int 0) ]))
  in
  let crash_at = 1 + (seed * 7 mod 60) in
  Cluster.kill_primary cl ~crash_at_write:crash_at;
  let acked = ref 0 in
  (try
     for i = 1 to 12 do
       Cluster.write cl ~session (fun db -> Db.set_node_property db node "v" (Value.Int i));
       acked := i
     done
   with Fault.Torn_write _ | Fault.Crashed _ | Cluster.Unavailable _ -> ());
  if not (Cluster.primary_down cl) then begin
    line "  seed %3d: crash_at_write=%d never fired (%d acked)" seed crash_at !acked;
    (0, 0)
  end
  else begin
    let p = Cluster.promote cl in
    let v = Sched.as_int (Db.node_property (Cluster.primary cl) node "v") in
    let ok = v = !acked || v = !acked + 1 in
    line "  seed %3d: crashed at write %d, %d acked, lost_acked=%d, recovered v=%d%s" seed
      crash_at !acked p.Cluster.lost_acked v
      (if ok then "" else " UNEXPECTED");
    (p.Cluster.lost_acked, if ok then 0 else 1)
  end

let run ?(seeds = 32) ?(sessions = 4) ?(txns_per_session = 4) ?(ops_per_txn = 4)
    ?(registers = 3) ?(baseline = true) ?(failover = true) () =
  let out = ref [] in
  let line fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  line "mgq audit: %d seeds, %d sessions x %d txns x %d ops, %d registers" seeds sessions
    txns_per_session ops_per_txn registers;
  let si =
    run_arm ~isolation:Db.Snapshot ~seeds ~sessions ~txns_per_session ~ops_per_txn ~registers
      ~crashes:true ~probes:true out
  in
  let bl =
    if baseline then
      Some
        (run_arm ~isolation:Db.Read_uncommitted ~seeds ~sessions ~txns_per_session ~ops_per_txn
           ~registers ~crashes:false ~probes:false out)
    else None
  in
  let failover_runs = if failover then seeds else 0 in
  let lost = ref 0 and fo_failures = ref 0 in
  if failover then begin
    line "arm failover (%d seeds): kill_primary mid-run, promote, assert lost_acked = 0" seeds;
    for seed = 0 to seeds - 1 do
      let l, f = failover_probe ~seed out in
      lost := !lost + l;
      fo_failures := !fo_failures + f
    done
  end;
  let arm_line name (a : arm) =
    line "%s: committed=%d conflicts=%d aborted=%d crash_runs=%d forbidden=%d %s" name
      a.arm_committed a.arm_conflicts a.arm_aborted a.arm_crash_runs a.arm_forbidden
      (String.concat " "
         (List.map
            (fun (k, n) -> Printf.sprintf "%s=%d" (Checker.kind_name k) n)
            a.arm_anomalies))
  in
  arm_line "snapshot-isolation" si;
  Option.iter (arm_line "baseline") bl;
  if failover then line "failover: runs=%d lost_acked=%d failures=%d" failover_runs !lost !fo_failures;
  let none name n what = { Verdict.name; passed = n = 0; detail = Printf.sprintf "%d %s" n what } in
  let verdicts =
    [
      none "no-forbidden-anomaly" si.arm_forbidden "forbidden anomalies under snapshot isolation";
      none "durable" si.arm_durability_failures "durability failures";
      none "no-catalog-leak" si.arm_catalog_leaks "catalog leaks";
      none "snapshot-round-trip" si.arm_snapshot_failures "snapshot round-trip failures";
      {
        Verdict.name = "failover-lost-nothing";
        passed = !lost = 0 && !fo_failures = 0;
        detail = Printf.sprintf "%d acked commits lost, %d failed probes" !lost !fo_failures;
      };
      (* The baseline arm is the harness self-test: with isolation off it
         must actually catch anomalies, or a green SI arm proves nothing. *)
      {
        Verdict.name = "baseline-self-test";
        passed = (match bl with None -> true | Some b -> b.arm_forbidden > 0);
        detail = "the read-uncommitted arm must find forbidden anomalies";
      };
    ]
  in
  line "verdict: %s" (if Verdict.passed verdicts then "PASS" else "FAIL");
  {
    r_si = si;
    r_baseline = bl;
    r_failover_lost = !lost;
    r_verdicts = verdicts;
    r_lines = List.rev !out;
  }

let to_text report = String.concat "\n" report.r_lines ^ "\n"
