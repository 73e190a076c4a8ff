(* Tests for the observability layer: metrics registry semantics,
   trace spans, the end-to-end wiring through the request path, and
   exact counters under concurrent domains. *)

module Obs = Mgq_obs.Obs
module Generator = Mgq_twitter.Generator
module Import_neo = Mgq_twitter.Import_neo
module Contexts = Mgq_queries.Contexts
module Q_neo_api = Mgq_queries.Q_neo_api
module Results = Mgq_queries.Results
module Workload = Mgq_queries.Workload
module Cypher = Mgq_cypher.Cypher
module Executor = Mgq_cypher.Executor
module Cluster = Mgq_cluster.Cluster
module Replica = Mgq_cluster.Replica
module Admission = Mgq_overload.Admission
module Breaker = Mgq_overload.Breaker
module Cost_model = Mgq_storage.Cost_model
module Sim_disk = Mgq_storage.Sim_disk
module Db = Mgq_neo.Db
module Value = Mgq_core.Value

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter_semantics () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "a.count" in
  check Alcotest.int "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.incr ~by:41 c;
  check Alcotest.int "accumulates" 42 (Obs.Counter.value c);
  (* Register-or-fetch: the same (name, labels) is the same cell. *)
  let c' = Obs.Registry.counter r "a.count" in
  Obs.Counter.incr c';
  check Alcotest.int "same handle" 43 (Obs.Counter.value c)

let test_derived_counter_semantics () =
  let r = Obs.Registry.create () in
  let total = ref 5 in
  Obs.Registry.derived_counter r "a.total" (fun () -> !total);
  let read () = Obs.find_counter (Obs.Registry.snapshot r) "a.total" in
  check Alcotest.(option int) "reads the owner's total" (Some 5) (read ());
  total := 12;
  check Alcotest.(option int) "read at snapshot time" (Some 12) (read ());
  Obs.Registry.reset r;
  check Alcotest.(option int) "reset takes a baseline" (Some 0) (read ());
  total := 15;
  check Alcotest.(option int) "counts from the baseline" (Some 3) (read ());
  check Alcotest.bool "not fetchable as a plain counter" true
    (match Obs.Registry.counter r "a.total" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_gauge_semantics () =
  let r = Obs.Registry.create () in
  let g = Obs.Registry.gauge r "a.gauge" in
  Obs.Gauge.set g 4.5;
  Obs.Gauge.add g 0.5;
  check (Alcotest.float 1e-9) "set + add" 5.0 (Obs.Gauge.value g)

let test_histogram_semantics () =
  let r = Obs.Registry.create () in
  let h = Obs.Registry.histogram r ~buckets:[ 10; 100 ] "a.hist" in
  List.iter (Obs.Histogram.observe h) [ -5; 0; 9; 10; 55; 100; 7000 ];
  check Alcotest.int "count" 7 (Obs.Histogram.count h);
  check Alcotest.int "sum" 7169 (Obs.Histogram.sum h);
  check
    Alcotest.(list (pair string int))
    "buckets: underflow first, counts sum to count"
    [ ("<10", 3); ("10-99", 2); ("100+", 2) ]
    (Obs.Histogram.buckets h);
  check Alcotest.int "bucket counts sum" (Obs.Histogram.count h)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Obs.Histogram.buckets h))

let test_label_isolation () =
  let r = Obs.Registry.create () in
  let hit = Obs.Registry.counter r "cache" ~labels:[ ("result", "hit") ] in
  let miss = Obs.Registry.counter r "cache" ~labels:[ ("result", "miss") ] in
  Obs.Counter.incr ~by:5 hit;
  Obs.Counter.incr miss;
  check Alcotest.int "hit untouched by miss" 5 (Obs.Counter.value hit);
  check Alcotest.int "miss isolated" 1 (Obs.Counter.value miss);
  (* Label order is canonicalised: both orders address one metric. *)
  let ab = Obs.Registry.counter r "multi" ~labels:[ ("a", "1"); ("b", "2") ] in
  let ba = Obs.Registry.counter r "multi" ~labels:[ ("b", "2"); ("a", "1") ] in
  Obs.Counter.incr ab;
  Obs.Counter.incr ba;
  check Alcotest.int "order-insensitive labels" 2 (Obs.Counter.value ab)

let test_kind_mismatch () =
  let r = Obs.Registry.create () in
  ignore (Obs.Registry.counter r "x");
  let raised =
    try
      ignore (Obs.Registry.gauge r "x");
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "counter-as-gauge raises" true raised

let test_snapshot_deterministic () =
  let r = Obs.Registry.create () in
  (* Registered out of order; the snapshot must come back sorted. *)
  Obs.Counter.incr ~by:2 (Obs.Registry.counter r "zz.last");
  Obs.Counter.incr (Obs.Registry.counter r "aa.first");
  Obs.Counter.incr (Obs.Registry.counter r "mm.mid" ~labels:[ ("k", "b") ]);
  Obs.Counter.incr (Obs.Registry.counter r "mm.mid" ~labels:[ ("k", "a") ]);
  let names s = List.map (fun (x : Obs.Registry.sample) -> (x.name, x.labels)) s in
  let snap = Obs.Registry.snapshot r in
  check
    Alcotest.(list (pair string (list (pair string string))))
    "sorted by name then labels"
    [
      ("aa.first", []);
      ("mm.mid", [ ("k", "a") ]);
      ("mm.mid", [ ("k", "b") ]);
      ("zz.last", []);
    ]
    (names snap);
  (* A second snapshot of unchanged state is identical. *)
  check Alcotest.bool "repeatable" true (snap = Obs.Registry.snapshot r)

let test_reset_keeps_handles () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "keep" in
  Obs.Counter.incr ~by:9 c;
  Obs.Registry.reset r;
  check Alcotest.int "zeroed" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  check Alcotest.int "old handle still live" 1 (Obs.Counter.value c);
  check (Alcotest.option Alcotest.int) "visible through snapshot" (Some 1)
    (Obs.find_counter (Obs.Registry.snapshot r) "keep")

let test_render () =
  let r = Obs.Registry.create () in
  Obs.Counter.incr ~by:3 (Obs.Registry.counter r "a.b" ~labels:[ ("x", "y") ]);
  check Alcotest.string "prometheus-style line" "a.b{x=y} 3"
    (Obs.render (Obs.Registry.snapshot r))

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_disabled_passthrough () =
  Obs.Trace.disable ();
  Obs.Trace.clear ();
  let v = Obs.Trace.with_span "ghost" (fun () -> 7) in
  check Alcotest.int "value passes through" 7 v;
  check Alcotest.int "nothing recorded" 0 (List.length (Obs.Trace.spans ()))

let test_trace_nesting () =
  Obs.Trace.enable ();
  Obs.Trace.with_span "outer" (fun () ->
      Obs.Trace.note "k" "v";
      Obs.Trace.with_span "inner" (fun () -> Obs.Trace.note_int "n" 3);
      Obs.Trace.with_span "inner" (fun () -> ()));
  Obs.Trace.disable ();
  let outer =
    match Obs.Trace.find "outer" with [ s ] -> s | _ -> Alcotest.fail "one outer"
  in
  let inners = Obs.Trace.find "inner" in
  check Alcotest.int "two inner spans" 2 (List.length inners);
  check Alcotest.int "outer at depth 0" 0 outer.Obs.Trace.depth;
  List.iter
    (fun (s : Obs.Trace.span) ->
      check Alcotest.int "inner at depth 1" 1 s.Obs.Trace.depth;
      check (Alcotest.option Alcotest.int) "parented to outer" (Some outer.Obs.Trace.id)
        s.Obs.Trace.parent)
    inners;
  check (Alcotest.option Alcotest.string) "note lands on open span" (Some "v")
    (Obs.Trace.attr outer "k");
  check (Alcotest.option Alcotest.int) "note_int" (Some 3)
    (Obs.Trace.attr_int (List.hd inners) "n");
  (* The default tick clock is deterministic: same program, same
     timestamps. *)
  check Alcotest.bool "start before stop" true
    (Int64.compare outer.Obs.Trace.start_ns outer.Obs.Trace.stop_ns < 0);
  let chain = Obs.Trace.ancestors (Obs.Trace.spans ()) (List.hd inners) in
  check
    Alcotest.(list string)
    "ancestors innermost first" [ "outer" ]
    (List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name) chain)

let test_trace_exception_closes_span () =
  Obs.Trace.enable ();
  (try Obs.Trace.with_span "boom" (fun () -> failwith "kaput") with Failure _ -> ());
  let still_works = Obs.Trace.with_span "after" (fun () -> true) in
  Obs.Trace.disable ();
  check Alcotest.bool "tracing survives the raise" true still_works;
  match Obs.Trace.find "boom" with
  | [ s ] ->
    check Alcotest.bool "error recorded" true (Obs.Trace.attr s "error" <> None);
    check Alcotest.int "span closed at depth 0" 0 s.Obs.Trace.depth
  | _ -> Alcotest.fail "exactly one boom span"

(* ------------------------------------------------------------------ *)
(* End-to-end wiring                                                   *)
(* ------------------------------------------------------------------ *)

let small_dataset () = Generator.generate (Generator.scaled ~n_users:200 ())

(* A one-replica cluster built around a primary holding the imported
   dataset — the traced request path used by [mgq query --trace]. *)
let routed_cluster dataset =
  let config =
    {
      Cluster.default_config with
      Cluster.replicas = 1;
      lag = Replica.Immediate;
      drop_p = 0.;
      sync_replicas = 0;
    }
  in
  let primary = Db.create () in
  let report, users, tweets, hashtags = Import_neo.run primary dataset in
  let cluster = Cluster.create ~config ~primary () in
  (cluster, fun db -> { Contexts.db; session = Cypher.create db; users; tweets; hashtags; report })

let test_e2e_trace_spans_layers () =
  let dataset = small_dataset () in
  let cluster, ctx_of = routed_cluster dataset in
  Obs.Trace.enable ();
  let result =
    Cluster.read cluster ~session:(Cluster.session cluster 0) (fun db ->
        Q_neo_api.q4_1 (ctx_of db) ~uid:0 ~n:5)
  in
  Obs.Trace.disable ();
  (match result with
  | Results.Counted _ -> ()
  | _ -> Alcotest.fail "q4.1 returns counts");
  let all = Obs.Trace.spans () in
  let one name =
    match Obs.Trace.find name with
    | [ s ] -> s
    | ss -> Alcotest.fail (Printf.sprintf "%d spans named %s" (List.length ss) name)
  in
  let read = one "cluster.read" in
  let route = one "router.route" in
  let serve = one "replica.serve" in
  let q = one "q4.1" in
  check (Alcotest.option Alcotest.int) "route under read" (Some read.Obs.Trace.id)
    route.Obs.Trace.parent;
  check (Alcotest.option Alcotest.int) "serve under read" (Some read.Obs.Trace.id)
    serve.Obs.Trace.parent;
  check (Alcotest.option Alcotest.int) "query under serve" (Some serve.Obs.Trace.id)
    q.Obs.Trace.parent;
  check (Alcotest.option Alcotest.string) "replica 0 served" (Some "replica-0")
    (Obs.Trace.attr route "choice");
  (* The traversal layer appears inside the query, with the serve and
     read spans as its enclosing chain. *)
  let expands = Obs.Trace.find "traversal.expand" in
  check Alcotest.int "two expansion levels" 2 (List.length expands);
  let chain = Obs.Trace.ancestors all (List.hd expands) in
  check
    Alcotest.(list string)
    "router -> replica -> traversal chain, innermost first"
    [ "q4.1"; "replica.serve"; "cluster.read" ]
    (List.map (fun (s : Obs.Trace.span) -> s.Obs.Trace.name) chain)

let test_e2e_cypher_db_hits_match_profile () =
  let dataset = small_dataset () in
  let ctx = Contexts.build_neo dataset in
  Obs.Trace.enable ();
  let result =
    Cypher.run ctx.Contexts.session
      "PROFILE MATCH (u:user) WHERE u.followers > 3 RETURN u.uid"
  in
  Obs.Trace.disable ();
  let profile_total =
    match result.Cypher.profile with
    | Some entries -> Executor.total_db_hits entries
    | None -> Alcotest.fail "profile requested"
  in
  let exec =
    match Obs.Trace.find "cypher.execute" with
    | [ s ] -> s
    | _ -> Alcotest.fail "one execute span"
  in
  check (Alcotest.option Alcotest.int) "span db_hits equals PROFILE total"
    (Some profile_total)
    (Obs.Trace.attr_int exec "db_hits");
  (* Per-operator spans bracket the same deltas: they sum to the run. *)
  let op_total =
    List.fold_left
      (fun acc (s : Obs.Trace.span) ->
        match s.Obs.Trace.name with
        | n when String.length n > 3 && String.sub n 0 3 = "op." ->
          acc + Option.value ~default:0 (Obs.Trace.attr_int s "db_hits")
        | _ -> acc)
      0 (Obs.Trace.spans ())
  in
  check Alcotest.int "operator spans sum to the run" profile_total op_total

let test_metrics_plan_cache_and_store () =
  let dataset = small_dataset () in
  let ctx = Contexts.build_neo dataset in
  Obs.reset ();
  let text = "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid" in
  List.iter
    (fun uid ->
      ignore (Cypher.run ctx.Contexts.session ~params:[ ("uid", Value.Int uid) ] text))
    [ 0; 1; 2 ];
  let snap = Obs.snapshot () in
  let counter ?labels name =
    match Obs.find_counter ?labels snap name with
    | Some v -> v
    | None -> Alcotest.fail (name ^ " not registered")
  in
  check Alcotest.int "one compilation" 1
    (counter "cypher.plan_cache" ~labels:[ ("result", "miss") ]);
  check Alcotest.int "two cache hits" 2
    (counter "cypher.plan_cache" ~labels:[ ("result", "hit") ]);
  check Alcotest.int "three queries" 3 (counter "cypher.queries");
  (* Store hits recorded by the registry equal the engine's own cost
     accounting over the same section. *)
  Obs.reset ();
  let cost = Sim_disk.cost (Db.disk ctx.Contexts.db) in
  let before = (Cost_model.snapshot cost).Cost_model.db_hits in
  (match Q_neo_api.q4_1 ctx ~uid:0 ~n:5 with Results.Counted _ -> () | _ -> assert false);
  let delta = (Cost_model.snapshot cost).Cost_model.db_hits - before in
  check Alcotest.bool "query touched the store" true (delta > 0);
  check (Alcotest.option Alcotest.int) "store.db_hits matches cost model" (Some delta)
    (Obs.find_counter (Obs.snapshot ()) "store.db_hits")

let test_metrics_shed_and_breaker () =
  Obs.reset ();
  (* Concurrency limit 2, three concurrent offers: exactly one shed. *)
  let adm =
    Admission.create
      ~config:
        { Admission.default_config with Admission.initial_limit = 2.; min_limit = 2. }
      ()
  in
  for _ = 1 to 3 do
    ignore (Admission.offer adm ~now_ns:0 ~cls:Workload.Cheap)
  done;
  (* Breaker through its full cycle: two failures trip it open, the
     cooldown elapses to half-open, one successful probe closes it. *)
  let b =
    Breaker.create
      ~config:
        { Breaker.failure_threshold = 2; open_for = 1; probe_successes = 1; probe_p = 1.0 }
      ~name:"t" (Mgq_util.Rng.create 7)
  in
  Breaker.record_failure b ~now:0;
  Breaker.record_failure b ~now:0;
  check Alcotest.bool "open rejects" false (Breaker.allow b ~now:0);
  Breaker.record_success b ~now:2;
  let snap = Obs.snapshot () in
  let counter ?labels name =
    match Obs.find_counter ?labels snap name with
    | Some v -> v
    | None -> Alcotest.fail (name ^ " not registered")
  in
  check Alcotest.int "admitted both free slots" 2 (counter "admission.admitted");
  check Alcotest.int "one cheap request shed" 1
    (counter "admission.shed" ~labels:[ ("class", "cheap") ]);
  check Alcotest.int "tripped open once" 1
    (counter "breaker.transitions" ~labels:[ ("to", "open") ]);
  check Alcotest.int "half-open once" 1
    (counter "breaker.transitions" ~labels:[ ("to", "half-open") ]);
  check Alcotest.int "closed once" 1
    (counter "breaker.transitions" ~labels:[ ("to", "closed") ]);
  check Alcotest.int "open rejected once" 1 (counter "breaker.rejections")

(* The store.* counters are read from the cost models at snapshot
   time: their deltas are the summed deltas of every live model, and
   neither a model reset nor a collected database moves them. *)
let store_names = [ "store.db_hits"; "store.page_hits"; "store.page_faults"; "store.page_flushes" ]

let store_readings () =
  let snap = Obs.snapshot () in
  List.map
    (fun name ->
      match Obs.find_counter snap name with
      | Some v -> v
      | None -> Alcotest.fail (name ^ " not registered"))
    store_names

let model_counts db =
  let c = Cost_model.snapshot (Sim_disk.cost (Db.disk db)) in
  [ c.Cost_model.db_hits; c.page_hits; c.page_faults; c.page_flushes ]

(* Writes and reads through a two-page pool, so hits, faults and
   flushes all move. *)
let churn db =
  let nodes =
    List.init 2000 (fun i ->
        Db.create_node db ~label:"user" (Mgq_core.Property.of_list [ ("uid", Value.Int i) ]))
  in
  List.iter (fun n -> ignore (Db.node_property db n "uid" : Value.t)) nodes

let tiny_db () = Db.create ~pool_pages:2 ~wal:false ()

let test_store_counters_sum_live_models () =
  let a = tiny_db () and b = tiny_db () in
  churn a;
  Obs.reset ();
  let a0 = model_counts a and b0 = model_counts b in
  churn b;
  churn a;
  let delta db c0 = List.map2 ( - ) (model_counts db) c0 in
  let expected = List.map2 ( + ) (delta a a0) (delta b b0) in
  check Alcotest.bool "hits, faults and flushes all moved" true (List.for_all (fun v -> v > 0) expected);
  check Alcotest.(list int) "store.* = summed deltas of both models" expected (store_readings ())

let test_store_counters_monotone () =
  let kept = tiny_db () in
  churn kept;
  let r0 = store_readings () in
  Cost_model.reset (Sim_disk.cost (Db.disk kept));
  check Alcotest.(list int) "a model reset keeps the totals" r0 (store_readings ());
  let model = Weak.create 1 in
  let dropped () =
    let db = tiny_db () in
    Weak.set model 0 (Some (Sim_disk.cost (Db.disk db)));
    churn db
  in
  dropped ();
  let r1 = store_readings () in
  check Alcotest.bool "the dropped database counted" true (List.for_all2 ( < ) r0 r1);
  Gc.full_major ();
  Gc.full_major ();
  check Alcotest.bool "the dropped database's model was collected" false (Weak.check model 0);
  check Alcotest.(list int) "collection keeps the totals" r1 (store_readings ());
  churn kept;
  check Alcotest.bool "counting goes on after reset" true
    (List.for_all2 ( <= ) r1 (store_readings ()));
  Obs.reset ();
  check Alcotest.(list int) "Obs.reset zeroes them" [ 0; 0; 0; 0 ] (store_readings ())

(* ------------------------------------------------------------------ *)
(* Domain safety                                                       *)
(* ------------------------------------------------------------------ *)

let test_obs_counter_parallel_exact () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "hammer.count" in
  let per_domain = 20_000 and domains = 4 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Counter.incr c
            done))
  in
  List.iter Domain.join workers;
  check Alcotest.int "no lost increments" (domains * per_domain) (Obs.Counter.value c)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "registry",
      [
        Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
        Alcotest.test_case "derived counter semantics" `Quick test_derived_counter_semantics;
        Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
        Alcotest.test_case "histogram semantics" `Quick test_histogram_semantics;
        Alcotest.test_case "label isolation" `Quick test_label_isolation;
        Alcotest.test_case "kind mismatch raises" `Quick test_kind_mismatch;
        Alcotest.test_case "snapshot deterministic" `Quick test_snapshot_deterministic;
        Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
        Alcotest.test_case "render" `Quick test_render;
      ] );
    ( "trace",
      [
        Alcotest.test_case "disabled passthrough" `Quick test_trace_disabled_passthrough;
        Alcotest.test_case "nesting and attrs" `Quick test_trace_nesting;
        Alcotest.test_case "exception closes span" `Quick test_trace_exception_closes_span;
      ] );
    ( "end-to-end",
      [
        Alcotest.test_case "trace spans router/replica/traversal" `Quick
          test_e2e_trace_spans_layers;
        Alcotest.test_case "cypher db hits match PROFILE" `Quick
          test_e2e_cypher_db_hits_match_profile;
        Alcotest.test_case "plan-cache and store counters" `Quick
          test_metrics_plan_cache_and_store;
        Alcotest.test_case "shed and breaker counters" `Quick test_metrics_shed_and_breaker;
        Alcotest.test_case "store counters sum live models" `Quick
          test_store_counters_sum_live_models;
        Alcotest.test_case "store counters stay monotone" `Quick test_store_counters_monotone;
      ] );
    ( "domain-safety",
      [
        Alcotest.test_case "metrics counter exact under domains" `Quick
          test_obs_counter_parallel_exact;
      ] );
  ]

let () = Alcotest.run "mgq_obs" suite
