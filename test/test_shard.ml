(* Tests for the sharded execution subsystem: partitioner, channel,
   domain-safety of the shared infrastructure (metrics registry, name
   dictionaries), shard construction invariants, and the scatter-gather
   executor's two contracts — answers identical to the unsharded
   engine at every shard count (and independent of completion order),
   and hit-for-hit cost parity at one shard. *)

module Partition = Mgq_shard.Partition
module Chan = Mgq_shard.Chan
module Shard = Mgq_shard.Shard
module Exec = Mgq_shard.Exec
module Sharded = Mgq_catalog.Sharded
module Obs = Mgq_obs.Obs
module Dict = Mgq_neo.Dict
module Generator = Mgq_twitter.Generator
module Dataset = Mgq_twitter.Dataset
module Contexts = Mgq_queries.Contexts
module Workload = Mgq_queries.Workload
module Results = Mgq_queries.Results
module Cost_model = Mgq_storage.Cost_model
module Sim_disk = Mgq_storage.Sim_disk
module Db = Mgq_neo.Db

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Partitioner                                                         *)
(* ------------------------------------------------------------------ *)

let specs =
  [ Partition.Hash; Partition.Modulo; Partition.Pinned { hot = [ 3; 7 ]; target = 1 } ]

let test_partition_range () =
  List.iter
    (fun spec ->
      List.iter
        (fun shards ->
          for uid = 0 to 500 do
            let s = Partition.assign spec ~shards uid in
            if s < 0 || s >= shards then
              Alcotest.failf "%s: uid %d -> shard %d outside [0,%d)"
                (Partition.name spec) uid s shards
          done)
        [ 1; 2; 3; 4; 8 ])
    specs

let test_partition_deterministic () =
  List.iter
    (fun spec ->
      for uid = 0 to 200 do
        check Alcotest.int "stable" (Partition.assign spec ~shards:4 uid)
          (Partition.assign spec ~shards:4 uid)
      done)
    specs

let test_partition_single_shard_is_zero () =
  List.iter
    (fun spec ->
      for uid = 0 to 50 do
        check Alcotest.int "one shard" 0 (Partition.assign spec ~shards:1 uid)
      done)
    specs

let test_partition_pinned () =
  let spec = Partition.Pinned { hot = [ 11; 22; 33 ]; target = 2 } in
  List.iter
    (fun uid -> check Alcotest.int "hot pinned" 2 (Partition.assign spec ~shards:4 uid))
    [ 11; 22; 33 ];
  (* Non-hot uids fall back to hash placement. *)
  check Alcotest.int "cold hashes" (Partition.assign Partition.Hash ~shards:4 5)
    (Partition.assign spec ~shards:4 5)

let test_partition_spreads () =
  (* A hash worth its salt puts at least one of 1000 dense uids on
     every one of 8 shards. *)
  let seen = Array.make 8 false in
  for uid = 0 to 999 do
    seen.(Partition.assign Partition.Hash ~shards:8 uid) <- true
  done;
  Array.iteri (fun i hit -> if not hit then Alcotest.failf "shard %d never hit" i) seen

let test_partition_of_string () =
  (match Partition.of_string "hash" with
  | Ok Partition.Hash -> ()
  | _ -> Alcotest.fail "hash should parse");
  (match Partition.of_string "modulo" with
  | Ok Partition.Modulo -> ()
  | _ -> Alcotest.fail "modulo should parse");
  match Partition.of_string "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown spec should not parse"

(* ------------------------------------------------------------------ *)
(* Channel                                                             *)
(* ------------------------------------------------------------------ *)

let test_chan_fifo () =
  let c = Chan.create () in
  List.iter (Chan.send c) [ 1; 2; 3 ];
  check Alcotest.int "queued" 3 (Chan.length c);
  check Alcotest.(option int) "fifo 1" (Some 1) (Chan.recv c);
  check Alcotest.(option int) "fifo 2" (Some 2) (Chan.recv c);
  check Alcotest.(option int) "try" (Some 3) (Chan.try_recv c);
  check Alcotest.(option int) "empty" None (Chan.try_recv c)

let test_chan_close () =
  let c = Chan.create () in
  Chan.send c 7;
  Chan.close c;
  Chan.close c;
  (* idempotent *)
  check Alcotest.(option int) "drains after close" (Some 7) (Chan.recv c);
  check Alcotest.(option int) "then None" None (Chan.recv c);
  match Chan.send c 8 with
  | () -> Alcotest.fail "send after close should raise"
  | exception Chan.Closed -> ()

let test_chan_cross_domain () =
  let c = Chan.create () in
  let n = 1_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          Chan.send c i
        done;
        Chan.close c)
  in
  let sum = ref 0 and count = ref 0 in
  let rec drain () =
    match Chan.recv c with
    | Some v ->
      sum := !sum + v;
      incr count;
      drain ()
    | None -> ()
  in
  drain ();
  Domain.join producer;
  check Alcotest.int "all delivered" n !count;
  check Alcotest.int "in full" (n * (n + 1) / 2) !sum

(* ------------------------------------------------------------------ *)
(* Domain safety of shared infrastructure                              *)
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

let test_dict_single_writer () =
  let d = Dict.create () in
  let id = Dict.intern d "user" in
  (* Lookups (and re-interns of existing names) are fine from any
     domain; interning a NEW name from a foreign domain must trip the
     single-writer assertion. *)
  let lookup_ok, foreign_raises =
    Domain.join
      (Domain.spawn (fun () ->
           let ok = Dict.find d "user" = Some id && Dict.intern d "user" = id in
           let raises =
             match Dict.intern d "brand-new" with
             | _ -> false
             | exception Invalid_argument _ -> true
           in
           (ok, raises)))
  in
  check Alcotest.bool "foreign lookup fine" true lookup_ok;
  check Alcotest.bool "foreign intern raises" true foreign_raises;
  (* Handover: after adoption the new domain is the writer. *)
  let adopted =
    Domain.join
      (Domain.spawn (fun () ->
           Dict.adopt_writer d;
           Dict.intern d "brand-new" > id))
  in
  check Alcotest.bool "adopted writer may intern" true adopted

(* Lock-free reads against a growing dictionary: reader domains look
   names up while the pinned writer interns new ones. A found id must
   be the one the writer gave that name and must map back to it; an
   id past the end raises; a reader's intern of a new name raises. *)
let test_dict_concurrent_reads () =
  let n = 500 in
  let key i = "k" ^ string_of_int i in
  let d = Dict.create () in
  ignore (Dict.intern d (key 0) : int);
  let stop = Atomic.make false in
  let reader () =
    let lookups = ref 0 and bad = ref 0 in
    let rec pass () =
      let seen = Dict.count d in
      for i = 0 to n - 1 do
        match Dict.find d (key i) with
        | None -> if i < seen then incr bad
        | Some id ->
          incr lookups;
          if id <> i || Dict.name d id <> key i then incr bad
      done;
      (match Dict.name d (n + 1) with
      | _ -> incr bad
      | exception Mgq_core.Types.Schema_error _ -> ());
      if not (Atomic.get stop) then pass ()
    in
    pass ();
    let foreign_raises =
      match Dict.intern d "foreign-new" with
      | _ -> false
      | exception Invalid_argument _ -> true
    in
    (!lookups, !bad, foreign_raises, Dict.intern d (key 0))
  in
  let readers = List.init 2 (fun _ -> Domain.spawn reader) in
  for i = 1 to n - 1 do
    check Alcotest.int (key i) i (Dict.intern d (key i))
  done;
  Atomic.set stop true;
  List.iter
    (fun r ->
      let lookups, bad, foreign_raises, reinterned = Domain.join r in
      check Alcotest.bool "reader found names" true (lookups > 0);
      check Alcotest.int "no torn or wrong lookups" 0 bad;
      check Alcotest.bool "foreign intern of a new name raises" true foreign_raises;
      check Alcotest.int "foreign re-intern of a known name" 0 reinterned)
    readers;
  check Alcotest.int "count" n (Dict.count d);
  check Alcotest.(list string) "names in id order" (List.init n key) (Dict.names d)

(* ------------------------------------------------------------------ *)
(* Shard construction                                                  *)
(* ------------------------------------------------------------------ *)

let small_dataset = lazy (Generator.generate (Generator.scaled ~n_users:300 ()))

let test_build_single_shard_has_no_ghosts () =
  let dataset = Lazy.force small_dataset in
  let shards = Shard.build_all ~spec:Partition.Hash ~shards:1 dataset in
  check Alcotest.int "one shard" 1 (Array.length shards);
  let st = Shard.stats shards in
  check Alcotest.int "no ghosts" 0 (Sharded.total_ghosts st);
  check Alcotest.int "no cut edges" 0 (Sharded.row st 0).Sharded.sh_cut_edges

let test_build_partition_covers_everything () =
  let dataset = Lazy.force small_dataset in
  let shards = Shard.build_all ~spec:Partition.Hash ~shards:3 dataset in
  let st = Shard.stats shards in
  let s = Dataset.stats dataset in
  (* Every user and tweet is owned by exactly one shard; hashtags are
     replicated everywhere and counted separately. *)
  check Alcotest.int "owned nodes partition users+tweets"
    (s.Dataset.users + s.Dataset.tweet_nodes)
    (Sharded.total_owned st);
  Array.iter
    (fun (sh : Shard.t) ->
      check Alcotest.int "hashtag replica count" s.Dataset.hashtag_nodes
        (Array.length sh.Shard.hashtags);
      Hashtbl.iter
        (fun uid _ ->
          check Alcotest.int "owner agrees with partitioner"
            (Partition.assign Partition.Hash ~shards:3 uid)
            sh.Shard.sid)
        sh.Shard.users)
    shards

(* ------------------------------------------------------------------ *)
(* Executor: correctness and one-shard cost parity                     *)
(* ------------------------------------------------------------------ *)

let query_ids =
  [ "Q1.1"; "Q2.1"; "Q2.2"; "Q2.3"; "Q3.1"; "Q3.2"; "Q4.1"; "Q4.2"; "Q5.1"; "Q5.2"; "Q6.1" ]

let test_args dataset =
  let followers = Dataset.follower_counts dataset in
  let uid = ref 0 in
  Array.iteri (fun i c -> if c > followers.(!uid) then uid := i) followers;
  {
    Workload.uid = !uid;
    uid2 = (!uid + 17) mod (Array.length followers);
    tag = "topic0";
    n = 10;
    threshold = Array.length followers / 100;
    max_hops = 3;
  }

let unsharded_answers dataset args =
  let neo = Contexts.build_neo dataset in
  let cost = Sim_disk.cost (Db.disk neo.Contexts.db) in
  List.map
    (fun id ->
      let q = Option.get (Workload.find id) in
      let before = Cost_model.snapshot cost in
      let r = q.Workload.run_neo_api neo args in
      let d = Cost_model.sub_counters (Cost_model.snapshot cost) before in
      (id, r, d.Cost_model.db_hits))
    query_ids

let test_exec_one_shard_hit_parity () =
  let dataset = Lazy.force small_dataset in
  let args = test_args dataset in
  let baseline = unsharded_answers dataset args in
  Exec.with_exec ~shards:1 dataset (fun ex ->
      List.iter
        (fun (id, expected, base_hits) ->
          let got = Option.get (Exec.run ex ~id args) in
          if not (Results.equal expected got) then Alcotest.failf "%s: result differs" id;
          let st = Exec.last_stats ex in
          check Alcotest.int (id ^ " db hits") base_hits st.Exec.st_db_hits)
        baseline)

let test_exec_results_identical_across_shard_counts () =
  let dataset = Lazy.force small_dataset in
  let args = test_args dataset in
  let baseline = unsharded_answers dataset args in
  List.iter
    (fun shards ->
      Exec.with_exec ~shards dataset (fun ex ->
          List.iter
            (fun (id, expected, _) ->
              let got = Option.get (Exec.run ex ~id args) in
              if not (Results.equal expected got) then
                Alcotest.failf "%s: differs at %d shards" id shards)
            baseline))
    [ 2; 3; 4 ]

(* The qcheck property behind the determinism claim: whatever the
   shard count, placement spec and completion-order scramble (jitter),
   answers match the unsharded engine, and the simulated cost
   accounting for a given (shards, spec) does not depend on jitter. *)
let prop_determinism =
  let dataset = Lazy.force small_dataset in
  let args = test_args dataset in
  let checked_ids = [ "Q2.3"; "Q3.1"; "Q4.1"; "Q5.2" ] in
  let baseline =
    List.filter (fun (id, _, _) -> List.mem id checked_ids)
      (unsharded_answers dataset args)
  in
  let gen =
    QCheck.make
      ~print:(fun (shards, spec_is_modulo, jitter) ->
        Printf.sprintf "shards=%d modulo=%b jitter=%d" shards spec_is_modulo jitter)
      QCheck.Gen.(
        triple (int_range 1 4) bool (int_range 0 1000))
  in
  QCheck.Test.make ~name:"sharded answers independent of shards/spec/jitter" ~count:8 gen
    (fun (shards, spec_is_modulo, jitter) ->
      let spec = if spec_is_modulo then Partition.Modulo else Partition.Hash in
      let run jitter =
        Exec.with_exec ~spec ~jitter ~shards dataset (fun ex ->
            List.map
              (fun (id, expected, _) ->
                let got = Option.get (Exec.run ex ~id args) in
                let st = Exec.last_stats ex in
                if not (Results.equal expected got) then
                  QCheck.Test.fail_reportf "%s: wrong answer at %d shards" id shards;
                (id, st.Exec.st_db_hits, st.Exec.st_makespan_ns))
              baseline)
      in
      (* Same placement, different completion order: identical cost books. *)
      run jitter = run ((jitter * 7) + 13))

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "partition",
      [
        Alcotest.test_case "assign in range" `Quick test_partition_range;
        Alcotest.test_case "deterministic" `Quick test_partition_deterministic;
        Alcotest.test_case "one shard is zero" `Quick test_partition_single_shard_is_zero;
        Alcotest.test_case "pinned hot users" `Quick test_partition_pinned;
        Alcotest.test_case "hash spreads" `Quick test_partition_spreads;
        Alcotest.test_case "of_string" `Quick test_partition_of_string;
      ] );
    ( "chan",
      [
        Alcotest.test_case "fifo" `Quick test_chan_fifo;
        Alcotest.test_case "close semantics" `Quick test_chan_close;
        Alcotest.test_case "cross-domain delivery" `Quick test_chan_cross_domain;
      ] );
    ( "domain-safety",
      [
        Alcotest.test_case "metrics counter exact under domains" `Quick
          test_obs_counter_parallel_exact;
        Alcotest.test_case "dict single-writer assertion" `Quick test_dict_single_writer;
        Alcotest.test_case "dict lock-free reads during interns" `Quick test_dict_concurrent_reads;
      ] );
    ( "shard-build",
      [
        Alcotest.test_case "one shard: no ghosts" `Quick test_build_single_shard_has_no_ghosts;
        Alcotest.test_case "partition covers all entities" `Quick
          test_build_partition_covers_everything;
      ] );
    ( "executor",
      [
        Alcotest.test_case "one-shard hit parity" `Quick test_exec_one_shard_hit_parity;
        Alcotest.test_case "results identical across shard counts" `Quick
          test_exec_results_identical_across_shard_counts;
        QCheck_alcotest.to_alcotest prop_determinism;
      ] );
  ]

let () = Alcotest.run "mgq_shard" suite
