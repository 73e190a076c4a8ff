(* The replication cluster: WAL LSNs and suffix shipping, replay
   determinism, lag models, dropped-shipment resends, the
   consistency-aware router (read-your-writes under every policy),
   base-backup replicas (a clone must equal a WAL-replayed replica),
   and the failover sweep — >= 30 seeded crash/promote runs that must
   lose zero acknowledged commits. *)

module Value = Mgq_core.Value
module Property = Mgq_core.Property
module Db = Mgq_neo.Db
module Wal = Mgq_neo.Wal
module Fault = Mgq_storage.Fault
module Sim_disk = Mgq_storage.Sim_disk
module Budget = Mgq_util.Budget
module Rng = Mgq_util.Rng
module Replica = Mgq_cluster.Replica
module Router = Mgq_cluster.Router
module Cluster = Mgq_cluster.Cluster
module Drill = Mgq_cluster.Drill

let check = Alcotest.check

let props l = Property.of_list l

let stop_testable =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Wal.stop_to_string s))
    ( = )

(* ------------------------------------------------------------------ *)
(* WAL LSNs                                                            *)
(* ------------------------------------------------------------------ *)

let commit_node db i =
  Db.with_tx db (fun () ->
      ignore (Db.create_node db ~label:"user" (props [ ("uid", Value.Int i) ])))

let test_lsn_assignment () =
  let db = Db.create () in
  let w = Option.get (Db.wal db) in
  check Alcotest.int "fresh log" 0 (Wal.last_lsn w);
  check Alcotest.int "fresh db" 0 (Db.last_lsn db);
  for i = 1 to 3 do
    commit_node db i;
    check Alcotest.int (Printf.sprintf "lsn after commit %d" i) i (Wal.last_lsn w)
  done;
  let lsns, stop = Wal.fold_ops_stop w (fun acc ~lsn _ -> lsn :: acc) [] in
  check Alcotest.(list int) "monotonic lsns" [ 1; 2; 3 ] (List.rev lsns);
  check stop_testable "clean scan" Wal.Clean stop

let suffix_lsns w ~lsn =
  let acc, stop = Wal.fold_from w ~lsn (fun acc ~lsn _ -> lsn :: acc) [] in
  (List.rev acc, stop)

let test_fold_from_suffix () =
  let db = Db.create () in
  let w = Option.get (Db.wal db) in
  for i = 1 to 5 do
    commit_node db i
  done;
  let all, stop = suffix_lsns w ~lsn:0 in
  check Alcotest.(list int) "whole log" [ 1; 2; 3; 4; 5 ] all;
  check stop_testable "clean" Wal.Clean stop;
  let tail, _ = suffix_lsns w ~lsn:3 in
  check Alcotest.(list int) "suffix past 3" [ 4; 5 ] tail;
  let empty, stop = suffix_lsns w ~lsn:5 in
  check Alcotest.(list int) "caught up" [] empty;
  check stop_testable "caught up is clean" Wal.Clean stop

let test_lsn_survives_truncate () =
  let w = Wal.create (Sim_disk.create ()) in
  let ops = [ Wal.Create_node { id = 0; label = "user"; props = [] } ] in
  check Alcotest.int "lsn 1" 1 (Wal.append_ops w ops);
  check Alcotest.int "lsn 2" 2 (Wal.append_ops w ops);
  Wal.truncate w;
  check Alcotest.int "base advanced" 2 (Wal.base_lsn w);
  check Alcotest.int "last unchanged" 2 (Wal.last_lsn w);
  check Alcotest.int "numbering continues" 3 (Wal.append_ops w ops);
  let tail, _ = suffix_lsns w ~lsn:2 in
  check Alcotest.(list int) "suffix from the base" [ 3 ] tail;
  check Alcotest.bool "compacted suffix rejected" true
    (try
       ignore (Wal.fold_from w ~lsn:1 (fun acc ~lsn:_ _ -> acc) []);
       false
     with Invalid_argument _ -> true)

(* A torn append must be diagnosed. Tearing the frame write directly
   (seeded persisted-prefix lengths) produces the whole taxonomy:
   nothing persisted scans Clean with one record; a partial header or
   payload is named as corruption — and either way exactly the intact
   prefix replays. *)
let test_stop_reasons_on_torn_tail () =
  let reasons = ref [] in
  (* Codec frames are dense; pad the payload so the seeded tear
     offsets keep landing inside the frame, not just before it. *)
  let ops i =
    [
      Wal.Create_node
        {
          id = i - 1;
          label = "user";
          props = [ ("uid", Value.Int i); ("pad", Value.Str (String.make 200 'p')) ];
        };
    ]
  in
  for seed = 1 to 40 do
    let disk = Sim_disk.create () in
    let w = Wal.create disk in
    ignore (Wal.append_ops w (ops 1));
    Sim_disk.arm_faults disk
      (Fault.plan ~seed ~crash_at_write:1 ~torn_crash:true ());
    (try ignore (Wal.append_ops w (ops 2))
     with Fault.Torn_write _ | Fault.Crashed _ -> ());
    Sim_disk.reopen disk;
    let n, stop = Wal.fold_ops_stop w (fun n ~lsn:_ _ -> n + 1) 0 in
    (* The torn frame never replays; a tear persisting the whole frame
       would yield 2 intact records, anything else exactly 1. *)
    check Alcotest.bool
      (Printf.sprintf "seed %d: intact prefix only (%d, %s)" seed n
         (Wal.stop_to_string stop))
      true
      (n = 1 || n = 2);
    if n = 1 then reasons := stop :: !reasons
  done;
  check Alcotest.bool "some tears are diagnosed as corruption" true
    (List.exists (fun s -> s <> Wal.Clean) !reasons);
  (* And the diagnosis reaches recover_report: a Db whose WAL tail is
     corrupted in place reports a non-Clean stop. *)
  let db = Db.create () in
  commit_node db 1;
  commit_node db 2;
  let w = Option.get (Db.wal db) in
  Wal.corrupt_payload_byte w ~lsn:2;
  let recovered, report = Db.recover_report db in
  check Alcotest.int "corrupted tail: prefix replays" 1 report.Db.replayed;
  check Alcotest.int "corrupted tail: recovered counts" 1 (Db.node_count recovered);
  check Alcotest.bool "corrupted tail: crc mismatch surfaced" true
    (match report.Db.stop with Wal.Crc_mismatch { lsn = 2 } -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Replay determinism                                                  *)
(* ------------------------------------------------------------------ *)

let file_contents path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let snapshot_bytes db =
  let path = Filename.temp_file "mgq_cluster" ".neo" in
  Db.save db path;
  let bytes = file_contents path in
  Sys.remove path;
  bytes

(* A random committed workload driven by one seed: transactions of
   node creations, edge creations and property updates. *)
let random_workload seed db =
  let rng = Rng.create seed in
  let nodes = ref 0 in
  for _ = 1 to 8 + Rng.int rng 8 do
    Db.with_tx db (fun () ->
        for _ = 1 to 1 + Rng.int rng 4 do
          match Rng.int rng 3 with
          | 0 ->
            ignore
              (Db.create_node db ~label:(if Rng.bool rng then "user" else "tweet")
                 (props [ ("uid", Value.Int !nodes) ]));
            incr nodes
          | 1 when !nodes >= 2 ->
            let src = Rng.int rng !nodes and dst = Rng.int rng !nodes in
            ignore (Db.create_edge db ~etype:"follows" ~src ~dst Property.empty)
          | _ when !nodes >= 1 ->
            Db.set_node_property db (Rng.int rng !nodes) "name"
              (Value.Str (Printf.sprintf "u%d" (Rng.int rng 100)))
          | _ ->
            ignore (Db.create_node db ~label:"user" Property.empty);
            incr nodes
        done)
  done

(* Ship every frame of [w] into [db] one transaction per record,
   optionally in two chunks through fold_from. *)
let apply_stream ?(split = 0) w db =
  let apply_upto ~from ~upto =
    ignore
      (Wal.fold_from w ~lsn:from
         (fun () ~lsn ops -> if lsn <= upto then Db.apply_redo db ops)
         ())
  in
  if split = 0 then apply_upto ~from:0 ~upto:max_int
  else begin
    apply_upto ~from:0 ~upto:split;
    apply_upto ~from:split ~upto:max_int
  end

let replay_determinism_prop seed =
  let primary = Db.create () in
  random_workload seed primary;
  let w = Option.get (Db.wal primary) in
  let total = Wal.records w in
  (* replica A: whole stream in one pass *)
  let a = Db.create () in
  apply_stream w a;
  (* replica B: shipped as two fold_from chunks *)
  let b = Db.create () in
  apply_stream ~split:(total / 2) w b;
  (* replica C: crash-recovery replay of the same log *)
  let c = Db.recover primary in
  let sa = snapshot_bytes a and sb = snapshot_bytes b and sc = snapshot_bytes c in
  String.equal sa sb && String.equal sa sc
  && Db.node_count a = Db.node_count primary
  && Db.edge_count a = Db.edge_count primary

let test_replay_determinism =
  QCheck.Test.make ~name:"replay determinism: byte-identical snapshots" ~count:15
    QCheck.(int_range 1 10_000)
    replay_determinism_prop

(* ------------------------------------------------------------------ *)
(* Shipping, lag models, drops                                         *)
(* ------------------------------------------------------------------ *)

let cluster_config ?(replicas = 3) ?(lag = Replica.Immediate) ?(drop_p = 0.0)
    ?(sync_replicas = 1) ?(policy = Router.Round_robin) ?(seed = 42) () =
  {
    Cluster.default_config with
    Cluster.replicas;
    lag;
    drop_p;
    sync_replicas;
    policy;
    seed;
  }

let write_marker cluster session i =
  Cluster.write cluster ~session (fun db ->
      ignore (Db.create_node db ~label:"user" (props [ ("k", Value.Int i) ])))

let test_replicas_catch_up () =
  let cluster = Cluster.create ~config:(cluster_config ()) () in
  let s = Cluster.session cluster 0 in
  for i = 1 to 10 do
    write_marker cluster s i
  done;
  check Alcotest.int "head" 10 (Cluster.head_lsn cluster);
  Array.iter
    (fun r ->
      check Alcotest.int
        (Printf.sprintf "replica %d applied" (Replica.id r))
        10 (Replica.applied_lsn r);
      check Alcotest.int
        (Printf.sprintf "replica %d nodes" (Replica.id r))
        10
        (Db.node_count (Replica.db r)))
    (Cluster.replicas cluster)

let test_drops_trigger_resend () =
  let cluster =
    Cluster.create ~config:(cluster_config ~drop_p:0.4 ~seed:7 ()) ()
  in
  let s = Cluster.session cluster 0 in
  for i = 1 to 50 do
    write_marker cluster s i
  done;
  let ticks = ref 0 in
  while
    Array.exists
      (fun r -> Replica.applied_lsn r < Cluster.head_lsn cluster)
      (Cluster.replicas cluster)
    && !ticks < 1_000
  do
    incr ticks;
    Cluster.tick cluster
  done;
  let dropped =
    Array.fold_left (fun n r -> n + Replica.drops r) 0 (Cluster.replicas cluster)
  in
  check Alcotest.bool "shipments were dropped" true (dropped > 0);
  Array.iter
    (fun r ->
      check Alcotest.int
        (Printf.sprintf "replica %d caught up" (Replica.id r))
        50 (Replica.applied_lsn r))
    (Cluster.replicas cluster)

let test_latency_lag_model () =
  let cluster =
    Cluster.create
      ~config:(cluster_config ~lag:(Replica.Latency { ticks = 3 }) ()) ()
  in
  let s = Cluster.session cluster 0 in
  write_marker cluster s 1;
  let r = (Cluster.replicas cluster).(0) in
  check Alcotest.int "journaled immediately" 1 (Replica.received_lsn r);
  check Alcotest.int "not yet visible" 0 (Replica.applied_lsn r);
  Cluster.tick cluster;
  Cluster.tick cluster;
  check Alcotest.int "still latent" 0 (Replica.applied_lsn r);
  Cluster.tick cluster;
  check Alcotest.int "visible after the latency" 1 (Replica.applied_lsn r)

let test_frames_behind_lag_model () =
  let cluster =
    Cluster.create ~config:(cluster_config ~lag:(Replica.Frames_behind 2) ()) ()
  in
  let s = Cluster.session cluster 0 in
  for i = 1 to 10 do
    write_marker cluster s i
  done;
  Array.iter
    (fun r ->
      check Alcotest.int
        (Printf.sprintf "replica %d trails by 2" (Replica.id r))
        8 (Replica.applied_lsn r))
    (Cluster.replicas cluster)

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

let no_wait () = false

let test_router_round_robin () =
  let r = Router.create Router.Round_robin ~n_replicas:3 in
  let s = Router.session 0 in
  let applied () = [| 5; 5; 5 |] in
  let serve () = Router.route r ~session:s ~head_lsn:5 ~applied ~wait:no_wait in
  let a = serve () in
  let b = serve () in
  let c = serve () in
  let d = serve () in
  check Alcotest.bool "rotates" true
    (a = Router.Serve_replica 0 && b = Router.Serve_replica 1
    && c = Router.Serve_replica 2 && d = Router.Serve_replica 0)

let test_router_least_lagged_and_sticky () =
  let r = Router.create Router.Least_lagged ~n_replicas:3 in
  let s = Router.session 0 in
  check Alcotest.bool "least lagged picks the max" true
    (Router.route r ~session:s ~head_lsn:9
       ~applied:(fun () -> [| 3; 9; 5 |])
       ~wait:no_wait
    = Router.Serve_replica 1);
  let r = Router.create Router.Sticky ~n_replicas:3 in
  let s7 = Router.session 7 in
  let serve () =
    Router.route r ~session:s7 ~head_lsn:5
      ~applied:(fun () -> [| 5; 5; 5 |])
      ~wait:no_wait
  in
  check Alcotest.bool "sticky pins sid mod n" true
    (serve () = Router.Serve_replica 1 && serve () = Router.Serve_replica 1)

let test_router_redirect_and_wait () =
  (* Redirect: the policy's choice is stale, another replica qualifies. *)
  let r = Router.create Router.Round_robin ~n_replicas:3 in
  let s = Router.session 0 in
  s.Router.high_water <- 4;
  check Alcotest.bool "redirects to the freshest qualifying replica" true
    (Router.route r ~session:s ~head_lsn:9
       ~applied:(fun () -> [| 2; 9; 3 |])
       ~wait:no_wait
    = Router.Serve_replica 1);
  check Alcotest.int "redirect counted" 1 (Router.redirects r);
  (* Wait: nobody qualifies until the third wait tick. *)
  let applied = [| 2; 2; 2 |] in
  let waits = ref 0 in
  let wait () =
    incr waits;
    if !waits = 3 then applied.(2) <- 4;
    true
  in
  (match
     Router.route r ~session:s ~head_lsn:9 ~applied:(fun () -> applied) ~wait
   with
  | Router.Serve_replica 2 -> ()
  | _ -> Alcotest.fail "expected the caught-up replica");
  check Alcotest.int "waited three ticks" 3 !waits;
  (* Fallback: the deadline never lets anyone catch up. *)
  check Alcotest.bool "primary fallback" true
    (Router.route r ~session:s ~head_lsn:9
       ~applied:(fun () -> [| 2; 2; 2 |])
       ~wait:no_wait
    = Router.Serve_primary);
  check Alcotest.int "fallback counted" 1 (Router.fallbacks r)

(* Regression: removing a replica mid-rotation used to leave the
   round-robin cursor pointing into the old, larger rotation. Eject
   clamps it, so the very next route lands on an active replica. *)
let test_router_eject_clamps_cursor () =
  let r = Router.create Router.Round_robin ~n_replicas:3 in
  let s = Router.session 0 in
  let applied () = [| 5; 5; 5 |] in
  let serve () = Router.route r ~session:s ~head_lsn:5 ~applied ~wait:no_wait in
  (* Advance mid-rotation: cursor now points at replica 2. *)
  ignore (serve ());
  ignore (serve ());
  Router.eject r 2;
  check Alcotest.int "two still active" 2 (Router.n_active r);
  (* The cursor was clamped into the 2-replica rotation; every serve
     must land on an active replica, never on the ejected one. *)
  for i = 1 to 6 do
    match serve () with
    | Router.Serve_replica j when Router.is_active r j -> ()
    | Router.Serve_replica j ->
      Alcotest.failf "serve %d landed on ejected replica %d" i j
    | Router.Serve_primary -> Alcotest.failf "serve %d fell to primary" i
  done;
  let served = Router.served r in
  check Alcotest.bool "rotation still balances the survivors" true
    (served.(0) >= 3 && served.(1) >= 3);
  (* Eject everyone: reads fall to the primary rather than crash. *)
  Router.eject r 0;
  Router.eject r 1;
  check Alcotest.bool "no active replicas -> primary" true (serve () = Router.Serve_primary);
  (* Restore re-enters the rotation. *)
  Router.restore r 1;
  check Alcotest.bool "restored replica serves again" true
    (serve () = Router.Serve_replica 1);
  check Alcotest.int "ejections counted" 3 (Router.ejections r);
  check Alcotest.int "restores counted" 1 (Router.restores r);
  check Alcotest.bool "out-of-range eject rejected" true
    (try
       Router.eject r 9;
       false
     with Invalid_argument _ -> true)

(* Ejection composes with read-your-writes: if the only fresh replica
   is ejected, the router waits or falls back instead of serving it. *)
let test_router_eject_respects_ryw () =
  let r = Router.create Router.Least_lagged ~n_replicas:3 in
  let s = Router.session 0 in
  s.Router.high_water <- 8;
  Router.eject r 1;
  check Alcotest.bool "fresh-but-ejected replica is skipped" true
    (Router.route r ~session:s ~head_lsn:9
       ~applied:(fun () -> [| 2; 9; 3 |])
       ~wait:no_wait
    = Router.Serve_primary)

(* ------------------------------------------------------------------ *)
(* Read-your-writes through the cluster                                *)
(* ------------------------------------------------------------------ *)

(* Under every policy, with laggy replicas, each session must observe
   its own writes: a read issued right after a write either waits for
   a replica, redirects, or falls back — never serves stale data. *)
let ryw_under policy =
  let cluster =
    Cluster.create
      ~config:
        (cluster_config ~policy ~lag:(Replica.Latency { ticks = 2 }) ~drop_p:0.1
           ~seed:11 ())
      ()
  in
  let n_sessions = 5 in
  (* Each session owns one node; node ids are allocation-ordered. *)
  for sid = 0 to n_sessions - 1 do
    let s = Cluster.session cluster sid in
    Cluster.write cluster ~session:s (fun db ->
        ignore (Db.create_node db ~label:"user" (props [ ("v", Value.Int 0) ])))
  done;
  for i = 1 to 40 do
    let sid = i mod n_sessions in
    let s = Cluster.session cluster sid in
    Cluster.write cluster ~session:s (fun db ->
        Db.set_node_property db sid "v" (Value.Int i));
    let seen =
      Cluster.read cluster
        ~budget:(Budget.create ~max_ns:50_000_000 ())
        ~session:s
        (fun db -> Db.node_property db sid "v")
    in
    check Alcotest.bool
      (Printf.sprintf "%s: session %d read its write %d"
         (Router.policy_to_string policy) sid i)
      true
      (seen = Value.Int i)
  done;
  let router = Cluster.router cluster in
  check Alcotest.bool "some reads landed on replicas" true
    (Array.fold_left ( + ) 0 (Router.served router) > 0)

(* The [mgq cluster --failover] drill under every policy: the session
   workload with the primary killed mid-run and a replica promoted.
   Both verdicts (read-your-writes, no acked commit lost) must pass. *)
let test_drill_failover () =
  List.iter
    (fun policy ->
      let config = cluster_config ~policy ~lag:(Replica.Latency { ticks = 2 }) ~drop_p:0.05 () in
      let run =
        Drill.sessions ~failover:true (Cluster.create ~config ()) ~sessions:8 ~steps:500
          ~write_ratio:0.25 ~seed:42
      in
      let name = Router.policy_to_string policy in
      check Alcotest.int (name ^ ": one promotion") 1 (List.length run.Drill.promotions);
      check
        Alcotest.(list string)
        (name ^ ": verdicts")
        [ "read-your-writes"; "no-acked-commit-lost" ]
        (List.map (fun (v : Mgq_util.Verdict.t) -> v.name) run.Drill.verdicts);
      List.iter
        (fun (v : Mgq_util.Verdict.t) -> check Alcotest.bool (name ^ ": " ^ v.detail) true v.passed)
        run.Drill.verdicts)
    [ Router.Round_robin; Router.Least_lagged; Router.Sticky ]

let test_ryw_round_robin () = ryw_under Router.Round_robin
let test_ryw_least_lagged () = ryw_under Router.Least_lagged
let test_ryw_sticky () = ryw_under Router.Sticky

let test_budget_deadline_falls_back_to_primary () =
  let cluster =
    Cluster.create
      ~config:(cluster_config ~lag:(Replica.Latency { ticks = 50 }) ()) ()
  in
  let s = Cluster.session cluster 0 in
  write_marker cluster s 1;
  (* The only replica able to serve within budget is none: one wait
     tick costs 1 ms, the budget affords none. *)
  let v, choice =
    Cluster.read_routed cluster
      ~budget:(Budget.create ~max_ns:500_000 ())
      ~session:s
      (fun db -> Db.node_count db)
  in
  check Alcotest.int "served the fresh value" 1 v;
  check Alcotest.bool "from the primary" true (choice = Router.Serve_primary);
  check Alcotest.int "fallback counted" 1 (Router.fallbacks (Cluster.router cluster))

(* ------------------------------------------------------------------ *)
(* Failover sweep                                                      *)
(* ------------------------------------------------------------------ *)

let test_failover_sweep () =
  let tails = ref 0 in
  for seed = 1 to 32 do
    let { Drill.cluster; acked; promotion; verdicts } = Drill.failover_trial ~seed in
    let acked = List.init acked Fun.id in
    check Alcotest.bool (Printf.sprintf "seed %d: verdicts pass" seed) true
      (Mgq_util.Verdict.passed verdicts);
    check Alcotest.int
      (Printf.sprintf "seed %d: zero acked commits lost" seed)
      0 promotion.Cluster.lost_acked;
    check stop_testable
      (Printf.sprintf "seed %d: promoted log scans clean" seed)
      Wal.Clean promotion.Cluster.stop;
    (* Every acknowledged write is present on the new primary. Writes
       are create-only, so write i made node i. *)
    let np = Cluster.primary cluster in
    List.iter
      (fun i ->
        if not (Db.node_exists np i) || Db.node_property np i "k" <> Value.Int i
        then
          Alcotest.failf "seed %d: acked write %d missing after failover" seed i)
      acked;
    check Alcotest.bool
      (Printf.sprintf "seed %d: nothing beyond the attempted workload" seed)
      true
      (Db.node_count np >= List.length acked && Db.node_count np <= 81);
    tails := !tails + promotion.Cluster.tail_applied;
    (* The promoted cluster keeps working, read-your-writes intact. *)
    let s2 = Cluster.session cluster 1 in
    Cluster.write cluster ~session:s2 (fun db ->
        ignore
          (Db.create_node db ~label:"user" (props [ ("post", Value.Int seed) ])));
    let n =
      Cluster.read cluster
        ~budget:(Budget.create ~max_ns:50_000_000 ())
        ~session:s2 Db.node_count
    in
    check Alcotest.int
      (Printf.sprintf "seed %d: post-failover write visible" seed)
      (Cluster.head_lsn cluster)
      (Cluster.acked_lsn cluster);
    check Alcotest.bool
      (Printf.sprintf "seed %d: post-failover read-your-writes" seed)
      true
      (n >= List.length acked + 1)
  done;
  check Alcotest.bool "some runs replayed a journaled tail" true (!tails > 0)

(* ------------------------------------------------------------------ *)
(* Base-backup replicas                                                *)
(* ------------------------------------------------------------------ *)

module Generator = Mgq_twitter.Generator
module Dataset = Mgq_twitter.Dataset
module Import_neo = Mgq_twitter.Import_neo
module Stream = Mgq_twitter.Stream
module Live_neo = Mgq_twitter.Live.Live_neo
module Schema = Mgq_twitter.Schema
module Catalog = Mgq_catalog.Catalog
module Contexts = Mgq_queries.Contexts
module Workload = Mgq_queries.Workload
module Results = Mgq_queries.Results
module Cypher = Mgq_cypher.Cypher
module Executor = Mgq_cypher.Executor

(* Denser activity than the default crawl, so the Table-2 queries have
   rows at these small scales. *)
let crawl ~seed ~n_users =
  Generator.generate
    {
      (Generator.scaled ~seed ~n_users ()) with
      Generator.active_fraction = 0.08;
      tweets_per_active = 30;
      mentions_per_tweet = 1.2;
      tags_per_tweet = 0.8;
    }

let ints l = String.concat "," (List.map string_of_int l)

(* Everything a replica's answers derive from, part by part. Page
   images are read through the pool, which moves only LRU order and
   cost counters, neither of which is compared. *)
let state_parts db =
  let disk = Db.disk db in
  let pages =
    List.init (Sim_disk.page_count disk) (fun p -> Sim_disk.with_page_read disk p Bytes.to_string)
  in
  let wal =
    match Db.wal db with
    | None -> "none"
    | Some w ->
      Printf.sprintf "base %d last %d bytes %d" (Wal.base_lsn w) (Wal.last_lsn w)
        (Wal.length_bytes w)
  in
  let labels = Db.labels db in
  let index (label, property) =
    if not (Db.has_index db ~label ~property) then label ^ " unindexed"
    else
      Db.nodes_with_label db label
      |> Seq.map (fun n ->
             let v = Db.node_property db n property in
             Value.to_tsv v ^ "=" ^ ints (Db.index_lookup db ~label ~property v))
      |> List.of_seq |> String.concat ";"
  in
  [
    ("store pages", Digest.to_hex (Digest.string (String.concat "" pages)));
    ("wal", wal);
    ( "dictionaries",
      String.concat "|" (List.map (String.concat ",") [ labels; Db.edge_types db; Db.property_keys db ])
    );
    ( "label scans",
      String.concat "|"
        (List.map (fun l -> l ^ ":" ^ ints (List.of_seq (Db.nodes_with_label db l))) labels) );
    ( "indexes",
      String.concat "|"
        (List.map index
           [ (Schema.user, Schema.uid); (Schema.tweet, Schema.tid); (Schema.hashtag, Schema.tag) ])
    );
    ("counts", Printf.sprintf "nodes %d edges %d" (Db.node_count db) (Db.edge_count db));
    ("catalog", Printf.sprintf "epoch %d\n%s" (Db.stats_epoch db) (Catalog.dump (Db.stats db)));
  ]

(* Every Table-2 answer through the core API and through Cypher under
   both planners, with each Cypher text's PROFILE (rows and db hits
   per operator). *)
let answers (ctx : Contexts.neo) (d : Dataset.t) =
  let n = d.Dataset.n_users in
  let sessions =
    [ ("heuristic", Cypher.Heuristic); ("cost", Cypher.Cost_based) ]
    |> List.map (fun (name, planner) ->
           (name, { ctx with Contexts.session = Cypher.create ~planner ctx.Contexts.db }))
  in
  let buf = Buffer.create 4096 in
  let tags = d.Dataset.hashtags in
  List.iter
    (fun uid ->
      let args =
        {
          Workload.default_args with
          Workload.uid;
          uid2 = (uid + (n / 3) + 1) mod n;
          tag = (if Array.length tags = 0 then "topic0" else tags.(uid mod Array.length tags));
        }
      in
      List.iter
        (fun (q : Workload.query) ->
          Printf.bprintf buf "%s uid=%d api %s\n" q.Workload.id uid
            (Results.to_string (q.Workload.run_neo_api ctx args));
          List.iter
            (fun (name, ctx) ->
              let r =
                Cypher.run ~params:(Workload.params args) ctx.Contexts.session
                  ("PROFILE " ^ q.Workload.cypher_text args)
              in
              Printf.bprintf buf "%s uid=%d %s %s\n%s" q.Workload.id uid name
                (Results.to_string (q.Workload.run_cypher ctx args))
                (Executor.profile_to_string (Option.get r.Cypher.profile)))
            sessions)
        Workload.all)
    [ 0; n / 2; n - 1 ];
  Buffer.contents buf

let first_difference a b =
  List.find_map
    (fun ((name, x), (_, y)) -> if String.equal x y then None else Some name)
    (List.combine a b)

type backup_case = { seed : int; users : int; before : int; after : int }

(* Offsets from each field's minimum, so shrinking towards 0 stays in
   range. *)
let backup_case =
  QCheck.map
    ~rev:(fun c -> (c.seed, c.users - 12, c.before, c.after - 1))
    (fun (seed, users, before, after) -> { seed; users = 12 + users; before; after = 1 + after })
    QCheck.(quad (int_bound 10_000) (int_bound 28) (int_bound 30) (int_bound 29))
  |> QCheck.set_print (fun c ->
         Printf.sprintf "seed=%d users=%d events before=%d after=%d" c.seed c.users c.before
           c.after)

(* A cloned replica against one built by replaying the primary's whole
   WAL: equal page images, log, dictionaries, label scans, indexes,
   statistics and Table-2 answers, at the base backup and after later
   commits ship to both. The source's own writes never reach the clone
   except by shipping, and promoting the clone loses nothing. *)
let base_backup_prop c =
  let d = crawl ~seed:c.seed ~n_users:c.users in
  let primary = Db.create () in
  let report, users, tweets, hashtags = Import_neo.run primary d in
  let live = Live_neo.attach primary ~users ~tweets ~hashtags d in
  let stream = Stream.create ~seed:c.seed d in
  List.iter (Live_neo.apply live) (Stream.take stream c.before);
  let replayed =
    Replica.create ~id:99 ~lag:Replica.Immediate ~drop_p:0. (Rng.create c.seed) (Db.create ())
  in
  let ship_replayed () =
    ignore
      (Wal.fold_frames_from (Option.get (Db.wal primary)) ~lsn:(Replica.received_lsn replayed)
         (fun () ~lsn payload -> assert (Replica.receive replayed ~now:0 ~lsn payload))
         ());
    ignore (Replica.catch_up replayed : int)
  in
  ship_replayed ();
  let cluster = Cluster.create ~config:(cluster_config ~replicas:1 ()) ~primary () in
  let replica = (Cluster.replicas cluster).(0) in
  let clone = Replica.db replica in
  let ctx db = { Contexts.db; session = Cypher.create db; users; tweets; hashtags; report } in
  let agree stage =
    (match first_difference (state_parts clone) (state_parts (Replica.db replayed)) with
    | Some part -> QCheck.Test.fail_reportf "%s: clone and replay differ in %s" stage part
    | None -> ());
    if answers (ctx clone) d <> answers (ctx (Replica.db replayed)) d then
      QCheck.Test.fail_reportf "%s: clone and replay answer Table 2 differently" stage
  in
  let head = Cluster.head_lsn cluster in
  if Replica.received_lsn replica <> head || Replica.applied_lsn replica <> head then
    QCheck.Test.fail_reportf "clone starts at lsn %d/%d, head is %d" (Replica.received_lsn replica)
      (Replica.applied_lsn replica) head;
  agree "at the base backup";
  let frozen = state_parts clone in
  List.iter (Live_neo.apply live) (Stream.take stream c.after);
  (match first_difference frozen (state_parts clone) with
  | Some part -> QCheck.Test.fail_reportf "a write to the source changed the clone's %s" part
  | None -> ());
  Cluster.tick cluster;
  ship_replayed ();
  if Replica.applied_lsn replica <> Cluster.head_lsn cluster then
    QCheck.Test.fail_reportf "clone applied %d of %d after shipping" (Replica.applied_lsn replica)
      (Cluster.head_lsn cluster);
  agree "after shipping";
  let promotion = Cluster.promote cluster in
  let recovered = Cluster.primary cluster in
  if promotion.Cluster.lost_acked <> 0 || promotion.Cluster.stop <> Wal.Clean then
    QCheck.Test.fail_reportf "promotion lost %d acked commits, scan %s" promotion.Cluster.lost_acked
      (Wal.stop_to_string promotion.Cluster.stop);
  if
    Db.last_lsn recovered <> Replica.applied_lsn replayed
    || snapshot_bytes recovered <> snapshot_bytes (Replica.db replayed)
  then QCheck.Test.fail_report "recovery from the clone's log does not reproduce its applied prefix";
  true

let test_base_backup_equivalence =
  QCheck.Test.make ~name:"clone = WAL replay: pages, indexes, stats, Table-2 answers" ~count:15
    backup_case base_backup_prop

let test_clone_of_empty () =
  let cluster = Cluster.create ~config:(cluster_config ~replicas:2 ()) () in
  Array.iter
    (fun r ->
      check Alcotest.int "empty replica" 0 (Db.node_count (Replica.db r));
      check Alcotest.int "starts at lsn 0" 0 (Replica.applied_lsn r);
      check Alcotest.int "no pages" 0 (Sim_disk.page_count (Db.disk (Replica.db r))))
    (Cluster.replicas cluster);
  let db = Db.create () in
  Db.with_tx db (fun () ->
      check Alcotest.bool "clone refuses an open transaction" true
        (try
           ignore (Db.clone db);
           false
         with Db.Tx_error _ -> true))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mgq_cluster"
    [
      ( "wal-lsn",
        [
          Alcotest.test_case "lsn assignment" `Quick test_lsn_assignment;
          Alcotest.test_case "fold_from suffix" `Quick test_fold_from_suffix;
          Alcotest.test_case "lsn survives truncate" `Quick test_lsn_survives_truncate;
          Alcotest.test_case "stop reasons on torn tails" `Quick
            test_stop_reasons_on_torn_tail;
        ] );
      ( "replay-determinism",
        [ QCheck_alcotest.to_alcotest test_replay_determinism ] );
      ( "shipping",
        [
          Alcotest.test_case "replicas catch up" `Quick test_replicas_catch_up;
          Alcotest.test_case "drops trigger resend" `Quick test_drops_trigger_resend;
          Alcotest.test_case "latency lag model" `Quick test_latency_lag_model;
          Alcotest.test_case "frames-behind lag model" `Quick
            test_frames_behind_lag_model;
        ] );
      ( "router",
        [
          Alcotest.test_case "round robin rotates" `Quick test_router_round_robin;
          Alcotest.test_case "least lagged and sticky" `Quick
            test_router_least_lagged_and_sticky;
          Alcotest.test_case "eject clamps cursor" `Quick
            test_router_eject_clamps_cursor;
          Alcotest.test_case "eject respects read-your-writes" `Quick
            test_router_eject_respects_ryw;
          Alcotest.test_case "redirect, wait, fallback" `Quick
            test_router_redirect_and_wait;
        ] );
      ( "read-your-writes",
        [
          Alcotest.test_case "round robin" `Quick test_ryw_round_robin;
          Alcotest.test_case "least lagged" `Quick test_ryw_least_lagged;
          Alcotest.test_case "sticky" `Quick test_ryw_sticky;
          Alcotest.test_case "budget fallback to primary" `Quick
            test_budget_deadline_falls_back_to_primary;
          Alcotest.test_case "failover drill, every policy" `Quick test_drill_failover;
        ] );
      ( "base-backup",
        [
          Alcotest.test_case "empty primary, open transaction" `Quick test_clone_of_empty;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |])
            test_base_backup_equivalence;
        ] );
      ( "failover",
        [ Alcotest.test_case "32-run crash/promote sweep" `Slow test_failover_sweep ] );
    ]
