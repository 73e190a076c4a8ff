(* Overload protection: circuit breaker state machine, admission
   control (token bucket + AIMD concurrency limit with priority
   shedding), the open-loop load simulator, and the breaker-guarded
   cluster read path (ejection from rotation, probing, restoration). *)

module Value = Mgq_core.Value
module Property = Mgq_core.Property
module Db = Mgq_neo.Db
module Rng = Mgq_util.Rng
module Workload = Mgq_queries.Workload
module Replica = Mgq_cluster.Replica
module Router = Mgq_cluster.Router
module Cluster = Mgq_cluster.Cluster
module Breaker = Mgq_overload.Breaker
module Admission = Mgq_overload.Admission
module Sim_load = Mgq_overload.Sim_load
module Guard = Mgq_overload.Guard

let check = Alcotest.check
let props l = Property.of_list l

let state_testable =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Breaker.state_to_string s))
    ( = )

(* ------------------------------------------------------------------ *)
(* Breaker state machine                                               *)
(* ------------------------------------------------------------------ *)

let breaker_config =
  { Breaker.failure_threshold = 3; open_for = 10; probe_successes = 2; probe_p = 1.0 }

let test_breaker_trips_on_consecutive_failures () =
  let b = Breaker.create ~config:breaker_config (Rng.create 1) in
  check state_testable "starts closed" Breaker.Closed (Breaker.state b ~now:0);
  Breaker.record_failure b ~now:1;
  Breaker.record_failure b ~now:2;
  check state_testable "below threshold" Breaker.Closed (Breaker.state b ~now:2);
  Breaker.record_failure b ~now:3;
  check state_testable "tripped" Breaker.Open (Breaker.state b ~now:3);
  check Alcotest.bool "open rejects" false (Breaker.allow b ~now:4);
  check Alcotest.int "rejection counted" 1 (Breaker.rejections b);
  check Alcotest.int "one open" 1 (Breaker.opens b)

let test_breaker_success_resets_streak () =
  let b = Breaker.create ~config:breaker_config (Rng.create 1) in
  Breaker.record_failure b ~now:1;
  Breaker.record_failure b ~now:2;
  Breaker.record_success b ~now:3;
  Breaker.record_failure b ~now:4;
  Breaker.record_failure b ~now:5;
  check state_testable "streak was reset" Breaker.Closed (Breaker.state b ~now:5)

let trip b ~now =
  for i = 1 to breaker_config.Breaker.failure_threshold do
    Breaker.record_failure b ~now:(now + i)
  done

let test_breaker_probes_then_closes () =
  let opened = ref 0 and closed = ref 0 in
  let b =
    Breaker.create ~config:breaker_config
      ~on_open:(fun () -> incr opened)
      ~on_close:(fun () -> incr closed)
      (Rng.create 1)
  in
  trip b ~now:0;
  check Alcotest.int "on_open fired" 1 !opened;
  check state_testable "still open inside cooldown" Breaker.Open
    (Breaker.state b ~now:(3 + breaker_config.Breaker.open_for - 1));
  let after = 3 + breaker_config.Breaker.open_for in
  check state_testable "half-open after cooldown" Breaker.Half_open
    (Breaker.state b ~now:after);
  check Alcotest.bool "probe admitted (probe_p = 1)" true (Breaker.allow b ~now:after);
  Breaker.record_success b ~now:after;
  check state_testable "one probe is not enough" Breaker.Half_open
    (Breaker.state b ~now:after);
  Breaker.record_success b ~now:(after + 1);
  check state_testable "re-closed" Breaker.Closed (Breaker.state b ~now:(after + 1));
  check Alcotest.int "on_close fired" 1 !closed

let test_breaker_probe_failure_reopens () =
  let b = Breaker.create ~config:breaker_config (Rng.create 1) in
  trip b ~now:0;
  let after = 3 + breaker_config.Breaker.open_for in
  check state_testable "half-open" Breaker.Half_open (Breaker.state b ~now:after);
  Breaker.record_failure b ~now:after;
  check state_testable "reopened on one probe failure" Breaker.Open
    (Breaker.state b ~now:after);
  check Alcotest.int "two opens" 2 (Breaker.opens b)

let test_breaker_probe_admission_is_seeded () =
  let never = { breaker_config with Breaker.probe_p = 0.0 } in
  let b = Breaker.create ~config:never (Rng.create 1) in
  trip b ~now:0;
  let after = 3 + never.Breaker.open_for in
  for i = 0 to 9 do
    check Alcotest.bool "probe_p = 0 admits nothing" false (Breaker.allow b ~now:(after + i))
  done;
  check Alcotest.int "all counted as rejections" 10 (Breaker.rejections b)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let admission_config =
  {
    Admission.default_config with
    Admission.initial_limit = 4.;
    min_limit = 1.;
    max_limit = 64.;
    min_window = 4;
  }

let test_admission_concurrency_limit () =
  let a = Admission.create ~config:admission_config () in
  for i = 1 to 4 do
    match Admission.offer a ~now_ns:i ~cls:Workload.Cheap with
    | Admission.Admitted -> ()
    | Admission.Rejected _ -> Alcotest.failf "offer %d rejected under the limit" i
  done;
  (match Admission.offer a ~now_ns:5 ~cls:Workload.Cheap with
  | Admission.Admitted -> Alcotest.fail "admitted past the limit"
  | Admission.Rejected { retry_after_ns } ->
    check Alcotest.bool "retry hint positive" true (retry_after_ns > 0));
  Admission.complete a ~now_ns:6 ~cls:Workload.Cheap ~latency_ns:1_000;
  (match Admission.offer a ~now_ns:7 ~cls:Workload.Cheap with
  | Admission.Admitted -> ()
  | Admission.Rejected _ -> Alcotest.fail "slot freed by complete");
  check Alcotest.int "inflight tracks slots" 4 (Admission.inflight a);
  check Alcotest.int "one shed" 1 (Admission.total_shed a)

let test_admission_sheds_expensive_first () =
  (* limit 4: expensive may fill 4 * 0.5 = 2 slots, cheap all 4 *)
  let a = Admission.create ~config:admission_config () in
  let admit cls =
    match Admission.offer a ~now_ns:0 ~cls with
    | Admission.Admitted -> true
    | Admission.Rejected _ -> false
  in
  check Alcotest.bool "cheap 1" true (admit Workload.Cheap);
  check Alcotest.bool "cheap 2" true (admit Workload.Cheap);
  check Alcotest.bool "expensive shed at half the limit" false (admit Workload.Expensive);
  check Alcotest.bool "moderate still fits (share 0.8)" true (admit Workload.Moderate);
  check Alcotest.bool "cheap still fits" true (admit Workload.Cheap);
  check Alcotest.bool "cheap shed at the full limit" false (admit Workload.Cheap);
  check Alcotest.int "expensive shed counted" 1 (Admission.shed a Workload.Expensive)

let test_admission_aimd_gradient () =
  let a = Admission.create ~config:admission_config () in
  let one latency_ns =
    (match Admission.offer a ~now_ns:0 ~cls:Workload.Cheap with
    | Admission.Admitted -> ()
    | Admission.Rejected _ -> Alcotest.fail "rejected");
    Admission.complete a ~now_ns:0 ~cls:Workload.Cheap ~latency_ns
  in
  (* establish a floor near 1000 ns *)
  for _ = 1 to 8 do
    one 1_000
  done;
  check Alcotest.(option int) "floor tracked" (Some 1_000)
    (Admission.latency_floor_ns a Workload.Cheap);
  let before = Admission.limit a in
  check Alcotest.bool "additive increase near the floor" true
    (before > admission_config.Admission.initial_limit);
  (* gradient collapses: latency 10x the floor *)
  for _ = 1 to 8 do
    one 10_000
  done;
  check Alcotest.bool "multiplicative decrease under inflation" true
    (Admission.limit a < before);
  check Alcotest.bool "decreases counted" true (Admission.decreases a > 0);
  check Alcotest.bool "never below min_limit" true
    (Admission.limit a >= admission_config.Admission.min_limit)

let test_admission_token_bucket () =
  let config =
    { admission_config with Admission.rate_per_s = 1_000.; burst = 2.; initial_limit = 64. }
  in
  let a = Admission.create ~config () in
  let offer now_ns = Admission.offer a ~now_ns ~cls:Workload.Cheap in
  (match offer 0 with Admission.Admitted -> () | _ -> Alcotest.fail "burst token 1");
  (match offer 0 with Admission.Admitted -> () | _ -> Alcotest.fail "burst token 2");
  (match offer 0 with
  | Admission.Admitted -> Alcotest.fail "admitted on an empty bucket"
  | Admission.Rejected { retry_after_ns } ->
    (* 1 token at 1000/s = 1 ms *)
    check Alcotest.bool "retry hint ~one token" true
      (retry_after_ns > 0 && retry_after_ns <= 1_000_000));
  (* one token refills after 1 ms of simulated time *)
  match offer 1_000_000 with
  | Admission.Admitted -> ()
  | Admission.Rejected _ -> Alcotest.fail "token not refilled"

(* The HTTP Retry-After mapping: whole seconds, ceiling — a positive
   nanosecond hint must never round down to "retry immediately". *)
let test_retry_after_seconds () =
  let cases =
    [
      (0, 0);
      (-5, 0);
      (1, 1);
      (999_999_999, 1);
      (1_000_000_000, 1);
      (1_000_000_001, 2);
      (2_500_000_000, 3);
    ]
  in
  List.iter
    (fun (ns, expect_s) ->
      check Alcotest.int
        (Printf.sprintf "retry_after_seconds %d" ns)
        expect_s
        (Admission.retry_after_seconds ns))
    cases;
  (* near-max_int hints saturate instead of overflowing in the ceil *)
  check Alcotest.bool "saturates near max_int" true
    (Admission.retry_after_seconds max_int > 0)

let prop_retry_after_positive =
  QCheck.Test.make ~count:500 ~name:"positive hint never maps to 0 s"
    QCheck.(int_range 1 max_int)
    (fun ns -> Admission.retry_after_seconds ns >= 1)

let prop_admission_limit_stays_bounded =
  QCheck.Test.make ~count:100 ~name:"AIMD limit stays within [min, max]"
    QCheck.(pair small_int (list (pair bool small_int)))
    (fun (seed, ops) ->
      let a = Admission.create ~config:admission_config () in
      let rng = Rng.create seed in
      List.iter
        (fun (_, lat) ->
          let cls =
            match Rng.int rng 3 with
            | 0 -> Workload.Cheap
            | 1 -> Workload.Moderate
            | _ -> Workload.Expensive
          in
          match Admission.offer a ~now_ns:0 ~cls with
          | Admission.Admitted ->
            if Rng.bool rng then
              Admission.complete a ~now_ns:0 ~cls ~latency_ns:(1 + (lat * 97))
            else Admission.abandon a
          | Admission.Rejected { retry_after_ns } ->
            if retry_after_ns <= 0 then QCheck.Test.fail_report "retry_after <= 0")
        ops;
      Admission.limit a >= admission_config.Admission.min_limit
      && Admission.limit a <= admission_config.Admission.max_limit
      && Admission.inflight a >= 0)

(* ------------------------------------------------------------------ *)
(* Open-loop simulator                                                 *)
(* ------------------------------------------------------------------ *)

let sim_config ~rate ~admission =
  {
    Sim_load.default_config with
    Sim_load.rate_per_s = rate;
    duration_ns = 500_000_000;
    admission = (if admission then Some Admission.default_config else None);
  }

let test_sim_deterministic () =
  let c = sim_config ~rate:2_000. ~admission:true in
  let r1 = Sim_load.run c and r2 = Sim_load.run c in
  check Alcotest.bool "identical reports" true (r1 = r2)

let test_sim_underload_meets_slo () =
  let r = Sim_load.run (sim_config ~rate:500. ~admission:true) in
  check Alcotest.int "nothing shed" 0 (Sim_load.shed_total r);
  check Alcotest.bool "non-trivial sample" true (r.Sim_load.completed > 100);
  check Alcotest.bool "nearly all completions are good" true
    (float_of_int r.Sim_load.good >= 0.99 *. float_of_int r.Sim_load.completed)

let test_sim_admission_protects_p99 () =
  (* far past saturation (~3.8k/s for 4 workers at ~1.06 ms mean) *)
  let protected_r = Sim_load.run (sim_config ~rate:8_000. ~admission:true) in
  let naked = Sim_load.run (sim_config ~rate:8_000. ~admission:false) in
  check Alcotest.bool "overload sheds" true (Sim_load.shed_total protected_r > 0);
  check Alcotest.bool "unprotected queue explodes" true
    (naked.Sim_load.max_queue > protected_r.Sim_load.max_queue);
  check Alcotest.bool "admitted p99 below unprotected p99" true
    (protected_r.Sim_load.p99_ns < naked.Sim_load.p99_ns);
  check Alcotest.bool "goodput above unprotected" true
    (protected_r.Sim_load.goodput_per_s > naked.Sim_load.goodput_per_s)

(* ------------------------------------------------------------------ *)
(* Breaker-guarded cluster reads                                       *)
(* ------------------------------------------------------------------ *)

let guard_cluster () =
  let config =
    {
      Cluster.default_config with
      Cluster.replicas = 3;
      lag = Replica.Immediate;
      policy = Router.Round_robin;
      seed = 42;
    }
  in
  let cluster = Cluster.create ~config () in
  let guard =
    Guard.create
      ~breaker_config:
        { Breaker.failure_threshold = 3; open_for = 5; probe_successes = 2; probe_p = 1.0 }
      cluster (Rng.create 7)
  in
  (cluster, guard)

let write_marker cluster session i =
  Cluster.write cluster ~session (fun db ->
      ignore (Db.create_node db ~label:"user" (props [ ("k", Value.Int i) ])))

let test_guard_ejects_failing_replica () =
  let cluster, guard = guard_cluster () in
  let s = Cluster.session cluster 0 in
  write_marker cluster s 1;
  let head = Cluster.head_lsn cluster in
  Guard.set_fault guard (fun ~replica ~now:_ -> replica = 0);
  (* Rotation hits replica 0 every third read; each hit records one
     failure and re-routes, so the read itself still succeeds. *)
  for i = 1 to 12 do
    check Alcotest.int (Printf.sprintf "read %d served correctly" i) head
      (Guard.read guard ~session:s Db.last_lsn)
  done;
  let b0 = Guard.breaker guard 0 in
  check state_testable "breaker 0 open" Breaker.Open
    (Breaker.state b0 ~now:(Cluster.now cluster));
  check Alcotest.bool "replica 0 ejected" false (Router.is_active (Cluster.router cluster) 0);
  check Alcotest.bool "ejection counted" true (Router.ejections (Cluster.router cluster) >= 1);
  check Alcotest.int "never served while open" 0 (Guard.served_while_open guard);
  (* ejected from rotation: further reads never touch replica 0 *)
  let rerouted = Guard.rerouted guard in
  for _ = 1 to 9 do
    ignore (Guard.read guard ~session:s Db.last_lsn)
  done;
  check Alcotest.int "no re-routes once ejected" rerouted (Guard.rerouted guard)

let test_guard_recovers_after_fault_clears () =
  let cluster, guard = guard_cluster () in
  let s = Cluster.session cluster 0 in
  write_marker cluster s 1;
  let head = Cluster.head_lsn cluster in
  let fault_on = ref true in
  Guard.set_fault guard (fun ~replica ~now:_ -> !fault_on && replica = 0);
  for _ = 1 to 12 do
    ignore (Guard.read guard ~session:s Db.last_lsn)
  done;
  check state_testable "open under fault" Breaker.Open
    (Breaker.state (Guard.breaker guard 0) ~now:(Cluster.now cluster));
  fault_on := false;
  (* past the cooldown the guard probes replica 0 and re-closes *)
  for _ = 1 to 6 do
    Cluster.tick cluster
  done;
  for _ = 1 to 4 do
    ignore (Guard.read guard ~session:s Db.last_lsn)
  done;
  check state_testable "re-closed after probes" Breaker.Closed
    (Breaker.state (Guard.breaker guard 0) ~now:(Cluster.now cluster));
  check Alcotest.bool "replica 0 restored" true
    (Router.is_active (Cluster.router cluster) 0);
  check Alcotest.bool "probes happened" true (Guard.probes guard >= 2);
  check Alcotest.int "restore counted" 1 (Router.restores (Cluster.router cluster));
  check Alcotest.int "never served while open" 0 (Guard.served_while_open guard);
  (* replica 0 serves again after restoration *)
  let served_before = (Router.served (Cluster.router cluster)).(0) in
  for _ = 1 to 6 do
    check Alcotest.int "reads still correct" head (Guard.read guard ~session:s Db.last_lsn)
  done;
  check Alcotest.bool "replica 0 back in rotation" true
    ((Router.served (Cluster.router cluster)).(0) > served_before)

let test_guard_respects_read_your_writes () =
  (* lagged replicas: a half-open probe must not serve a session whose
     high-water mark the replica has not applied *)
  let config =
    {
      Cluster.default_config with
      Cluster.replicas = 2;
      lag = Replica.Latency { ticks = 1_000 };
      policy = Router.Round_robin;
      seed = 42;
    }
  in
  let cluster = Cluster.create ~config () in
  let guard =
    Guard.create
      ~breaker_config:
        { Breaker.failure_threshold = 1; open_for = 1; probe_successes = 1; probe_p = 1.0 }
      cluster (Rng.create 7)
  in
  let s = Cluster.session cluster 0 in
  write_marker cluster s 1;
  (* trip replica 0's breaker: the router's wait loop lets the lagged
     replicas catch up to LSN 1, then the fault fails the call *)
  let fault_on = ref true in
  Guard.set_fault guard (fun ~replica ~now:_ -> !fault_on && replica = 0);
  ignore (Guard.read guard ~session:s Db.last_lsn);
  fault_on := false;
  (* advance the session past anything the lagged replicas have
     applied; breaker 0 turns half-open but its replica is stale *)
  write_marker cluster s 2;
  Cluster.tick cluster;
  check state_testable "half-open at probe time" Breaker.Half_open
    (Breaker.state (Guard.breaker guard 0) ~now:(Cluster.now cluster));
  check Alcotest.bool "replica 0 is behind the session" true
    (Replica.applied_lsn (Cluster.replicas cluster).(0) < s.Router.high_water);
  let head = Cluster.head_lsn cluster in
  check Alcotest.int "read served without a stale probe" head
    (Guard.read guard ~session:s Db.last_lsn);
  check Alcotest.int "no probe on a stale replica" 0 (Guard.probes guard)

let () =
  Alcotest.run "mgq_overload"
    [
      ( "breaker",
        [
          Alcotest.test_case "trips on consecutive failures" `Quick
            test_breaker_trips_on_consecutive_failures;
          Alcotest.test_case "success resets the streak" `Quick
            test_breaker_success_resets_streak;
          Alcotest.test_case "probes then closes" `Quick test_breaker_probes_then_closes;
          Alcotest.test_case "probe failure reopens" `Quick
            test_breaker_probe_failure_reopens;
          Alcotest.test_case "probe admission is seeded" `Quick
            test_breaker_probe_admission_is_seeded;
        ] );
      ( "admission",
        [
          Alcotest.test_case "concurrency limit" `Quick test_admission_concurrency_limit;
          Alcotest.test_case "sheds expensive first" `Quick
            test_admission_sheds_expensive_first;
          Alcotest.test_case "AIMD latency gradient" `Quick test_admission_aimd_gradient;
          Alcotest.test_case "token bucket" `Quick test_admission_token_bucket;
          Alcotest.test_case "retry_after_seconds ceils" `Quick test_retry_after_seconds;
          QCheck_alcotest.to_alcotest prop_retry_after_positive;
          QCheck_alcotest.to_alcotest prop_admission_limit_stays_bounded;
        ] );
      ( "sim-load",
        [
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "underload meets SLO" `Quick test_sim_underload_meets_slo;
          Alcotest.test_case "admission protects p99 under overload" `Quick
            test_sim_admission_protects_p99;
        ] );
      ( "guard",
        [
          Alcotest.test_case "ejects a failing replica" `Quick
            test_guard_ejects_failing_replica;
          Alcotest.test_case "recovers after the fault clears" `Quick
            test_guard_recovers_after_fault_clears;
          Alcotest.test_case "probe respects read-your-writes" `Quick
            test_guard_respects_read_your_writes;
        ] );
    ]
