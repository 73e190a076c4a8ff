(* Tests for the benchmark's own code: percentiles, failure counting,
   op-list determinism and span self times. *)

module Results = Mgq_queries.Results
module Workload = Mgq_queries.Workload

let check = Alcotest.check

let ascending n = Pstats.sorted (Array.init n (fun i -> float_of_int (n - i)))

let test_nearest_rank () =
  let s = ascending 4 in
  check (Alcotest.float 0.) "p50 of 1..4" 2. (Pstats.median s);
  check (Alcotest.float 0.) "p100" 4. (Pstats.nearest_rank s 100.);
  check (Alcotest.float 0.) "p1" 1. (Pstats.nearest_rank s 1.);
  check (Alcotest.float 0.) "p75 of 1..4" 3. (Pstats.nearest_rank s 75.)

let test_tail_rule () =
  (match Pstats.tail (ascending 1000) 99. with
  | Some t ->
    check (Alcotest.float 0.) "p99 of 1..1000" 990. t.Pstats.value;
    check Alcotest.int "ten beyond" 10 t.Pstats.above
  | None -> Alcotest.fail "1000 samples carry a p99");
  (match Pstats.tail (ascending 500) 99. with
  | Some t ->
    (* rank 495 would leave 5 beyond: fall back to rank 490 *)
    check (Alcotest.float 0.) "falls back" 490. t.Pstats.value;
    check Alcotest.int "still ten beyond" 10 t.Pstats.above;
    check (Alcotest.float 1e-9) "reported percentile" 98. t.Pstats.percentile
  | None -> Alcotest.fail "500 samples carry a tail");
  check Alcotest.bool "ten samples are too few" true (Pstats.tail (ascending 10) 99. = None);
  match Pstats.tail (ascending 11) 99. with
  | Some t -> check (Alcotest.float 0.) "eleven samples: the lowest" 1. t.Pstats.value
  | None -> Alcotest.fail "11 samples leave ten beyond the first"

let test_ok_ratio () =
  let outcomes =
    [|
      Outcome.Correct;
      Outcome.Shed;
      Outcome.Transport "connection closed mid-reply";
      Outcome.Raised "Not_found";
      Outcome.Wrong "expected [1], got [2]";
      Outcome.Status 503;
      Outcome.Correct;
    |]
  in
  let t = Outcome.tally outcomes in
  check Alcotest.int "attempted" 7 t.Outcome.attempted;
  check Alcotest.int "failed" 5 t.Outcome.failed;
  check (Alcotest.float 1e-12) "ok_ratio" (2. /. 7.) (Outcome.ok_ratio t);
  check Alcotest.(list int) "failures kept in order" [ 1; 2; 3; 4; 5 ]
    (List.map fst t.Outcome.first_failures)

let test_reply_outcomes () =
  let expected = lazy (Results.Ids [ 1; 2 ]) in
  let reply status body = Oracle.check_reply ~expected ~decode:(Oracle.decode_cypher ~id:"Q2.1") (status, body) in
  let is want got = check Alcotest.string "outcome" (Outcome.describe want) (Outcome.describe got) in
  is Outcome.Correct (reply 200 {|{"columns":["f.uid"],"rows":[[2],[1]],"row_count":2}|});
  is Outcome.Shed (reply 429 {|{"error":"overloaded"}|});
  is (Outcome.Status 500) (reply 500 "");
  check Alcotest.bool "a wrong answer fails" false
    (Outcome.is_ok (reply 200 {|{"columns":["f.uid"],"rows":[[1],[3]],"row_count":2}|}));
  check Alcotest.bool "an undecodable body fails" false (Outcome.is_ok (reply 200 "<html>"));
  check Alcotest.bool "a reply without rows fails" false
    (Outcome.is_ok (reply 200 {|{"error":"timeout"}|}))

let test_cypher_decode () =
  let body = {|{"columns":["id","c"],"rows":[[7,3],[2,1]],"row_count":2}|} in
  check Alcotest.bool "ranked rows keep their order" true
    (Results.equal (Results.Counted [ (7, 3); (2, 1) ]) (Oracle.decode_cypher ~id:"Q4.1" body));
  let ids = {|{"columns":["f.uid"],"rows":[[9],[4]],"row_count":2}|} in
  check Alcotest.bool "id sets are sorted" true
    (Results.equal (Results.Ids [ 4; 9 ]) (Oracle.decode_cypher ~id:"Q2.1" ids));
  check Alcotest.bool "no path row" true
    (Results.equal (Results.Path_length None)
       (Oracle.decode_cypher ~id:"Q6.1" {|{"columns":["length(p)"],"rows":[],"row_count":0}|}))

let crawl = lazy (Mgq_twitter.Generator.generate (Mgq_twitter.Generator.scaled ~seed:5 ~n_users:300 ()))

let weights = [ ("Q1.1", 1); ("Q2.1", 3); ("Q4.1", 2) ]

let cypher_key (c : Opgen.cypher) = (c.Opgen.query.Workload.id, c.Opgen.args, c.Opgen.spliced)

let test_op_lists () =
  let d = Lazy.force crawl in
  let same name f =
    check Alcotest.bool (name ^ ": one seed, one list") true (f 1 = f 1);
    check Alcotest.bool (name ^ ": another seed, another list") false (f 1 = f 2)
  in
  same "cypher" (fun seed ->
      Array.map cypher_key (Opgen.cypher_ops ~seed d ~weights ~splice_every:10 ~warmup:50 ~count:500));
  same "ingest" (fun seed ->
      Opgen.ingest_ops ~seed d ~read_per_mille:200 ~warmup:50 ~checkpoints:3 ~count:500)

(* The seed picks order and arguments, never the mix. *)
let test_exact_mix () =
  let d = Lazy.force crawl in
  let count id ops =
    Array.fold_left (fun acc (o : Opgen.cypher) -> if o.Opgen.query.Workload.id = id then acc + 1 else acc) 0 ops
  in
  List.iter
    (fun seed ->
      let ops = Opgen.cypher_ops ~seed d ~weights ~splice_every:10 ~warmup:60 ~count:660 in
      let timed = Array.sub ops 60 600 in
      check Alcotest.(list int) "timed mix" [ 100; 300; 200 ]
        (List.map (fun (id, _) -> count id timed) weights);
      check Alcotest.(list int) "warm-up mix" [ 10; 30; 20 ]
        (List.map (fun (id, _) -> count id (Array.sub ops 0 60)) weights))
    [ 1; 2; 3 ];
  let cy = Opgen.cypher_ops ~seed:4 d ~weights ~splice_every:10 ~warmup:0 ~count:600 in
  let spliced = Array.fold_left (fun acc (o : Opgen.cypher) -> if o.Opgen.spliced then acc + 1 else acc) 0 cy in
  (* Q2.1 and Q4.1 take $uid: 500 spliceable ops, one in ten spliced *)
  check Alcotest.int "spliced ops" 50 spliced

let test_ingest_shape () =
  let d = Lazy.force crawl in
  let ops = Opgen.ingest_ops ~seed:3 d ~read_per_mille:200 ~warmup:100 ~checkpoints:4 ~count:900 in
  let checkpoints = Array.to_list ops |> List.filter (( = ) Opgen.Checkpoint) |> List.length in
  check Alcotest.int "checkpoints" 4 checkpoints;
  Array.iteri
    (fun i op -> if op = Opgen.Checkpoint && i < 100 then Alcotest.fail "checkpoint in warm-up")
    ops

let test_self_times () =
  let now = ref 0 in
  let clock () = !now in
  let spans = Spans.create ~clock () in
  let tick n = now := !now + n in
  Spans.with_span spans ~op:0 "op" (fun () ->
      tick 5;
      Spans.with_span spans ~op:0 "child" (fun () -> tick 20);
      tick 3;
      Spans.with_span spans ~op:0 "child" (fun () -> tick 10);
      tick 2);
  let self = Spans.self_times spans in
  check Alcotest.(list (triple string int int)) "self times"
    [ ("op", 10, 1); ("child", 30, 2) ] self;
  (try Spans.with_span spans ~op:1 "failing" (fun () -> tick 4; failwith "boom")
   with Failure _ -> ());
  check Alcotest.(list (triple string int int)) "a raising span still closes"
    [ ("op", 10, 1); ("child", 30, 2); ("failing", 4, 1) ] (Spans.self_times spans)

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "ten samples beyond the tail" `Quick test_tail_rule;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "ok_ratio counts every failure kind" `Quick test_ok_ratio;
          Alcotest.test_case "HTTP replies" `Quick test_reply_outcomes;
          Alcotest.test_case "Cypher rows" `Quick test_cypher_decode;
        ] );
      ( "op lists",
        [
          Alcotest.test_case "fixed per seed" `Quick test_op_lists;
          Alcotest.test_case "exact mix" `Quick test_exact_mix;
          Alcotest.test_case "ingest checkpoints" `Quick test_ingest_shape;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_times ]);
    ]
