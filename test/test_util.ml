(* Unit and property tests for mgq_util. *)

module Rng = Mgq_util.Rng
module Budget = Mgq_util.Budget
module Sampler = Mgq_util.Sampler
module Topn = Mgq_util.Topn
module Stats = Mgq_util.Stats
module Text_table = Mgq_util.Text_table
module Tsv = Mgq_util.Tsv
module Json = Mgq_util.Json
module Crc32 = Mgq_util.Crc32
module Verdict = Mgq_util.Verdict

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  (* Advancing [a] must not move [b]'s position. *)
  let x1 = Rng.next_int64 a in
  ignore (Rng.next_int64 a);
  ignore (Rng.next_int64 a);
  let y1 = Rng.next_int64 b in
  check Alcotest.int64 "copy unaffected by original's draws" x1 y1

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let equal_count = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr equal_count
  done;
  check Alcotest.bool "split streams differ" true (!equal_count < 4)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int_in stays within inclusive range" ~count:500
    QCheck.(triple small_int (int_range (-1000) 1000) (int_range 0 1000))
    (fun (seed, lo, span) ->
      let hi = lo + span in
      let rng = Rng.create seed in
      let v = Rng.int_in rng lo hi in
      v >= lo && v <= hi)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float in [0, bound)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let v = Rng.float rng 3.5 in
      v >= 0. && v < 3.5)

let test_rng_int_uniformity () =
  let rng = Rng.create 123 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      check Alcotest.bool
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (abs (c - expected) < expected / 5))
    counts

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"Rng.shuffle permutes" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let rng = Rng.create seed in
      let arr = Array.of_list xs in
      Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let prop_sample_without_replacement =
  QCheck.Test.make ~name:"sample_without_replacement: distinct, in range" ~count:200
    QCheck.(triple small_int (int_range 0 200) (int_range 1 400))
    (fun (seed, k, n) ->
      let k = min k n in
      let rng = Rng.create seed in
      let xs = Rng.sample_without_replacement rng k n in
      List.length xs = k
      && List.length (List.sort_uniq compare xs) = k
      && List.for_all (fun x -> x >= 0 && x < n) xs)

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)
(* ------------------------------------------------------------------ *)

let test_budget_negative_charge_saturates () =
  let b = Budget.create ~max_ns:1_000 () in
  Budget.charge ~ns:600 b;
  (* A re-armed simulated clock hands back a negative delta: consumption
     must hold, not run backwards and re-open the deadline. *)
  Budget.charge ~ns:(-400) ~hits:(-7) b;
  check Alcotest.int "ns saturates" 600 (Budget.consumed_ns b);
  check Alcotest.int "hits saturate" 0 (Budget.hits b);
  check (Alcotest.option Alcotest.int) "remaining unchanged" (Some 400)
    (Budget.remaining_ns b)

let test_budget_remaining_and_affords () =
  let b = Budget.create ~max_ns:1_000 () in
  check (Alcotest.option Alcotest.int) "fresh" (Some 1_000) (Budget.remaining_ns b);
  check Alcotest.bool "affords full" true (Budget.affords_ns b ~ns:1_000);
  check Alcotest.bool "cannot afford more" false (Budget.affords_ns b ~ns:1_001);
  Budget.charge ~ns:900 b;
  check (Alcotest.option Alcotest.int) "after charge" (Some 100) (Budget.remaining_ns b);
  check Alcotest.bool "affords tail" true (Budget.affords_ns b ~ns:100);
  check Alcotest.bool "tail + 1 too much" false (Budget.affords_ns b ~ns:101);
  let unlimited = Budget.create () in
  check (Alcotest.option Alcotest.int) "no ceiling" None (Budget.remaining_ns unlimited);
  check Alcotest.bool "unlimited affords anything" true
    (Budget.affords_ns unlimited ~ns:max_int)

let test_budget_sub_caps_at_remaining () =
  let parent = Budget.create ~max_hits:10 ~max_ns:1_000 () in
  Budget.charge ~hits:4 ~ns:700 parent;
  let child = Budget.sub ~max_ns:10_000 parent in
  check (Alcotest.option Alcotest.int) "child ns capped by parent" (Some 300)
    (Budget.remaining_ns child);
  check (Alcotest.option Alcotest.int) "child hits inherited" (Some 6)
    (Budget.remaining_hits child);
  let tight = Budget.sub ~max_ns:50 parent in
  check (Alcotest.option Alcotest.int) "explicit cap wins when tighter" (Some 50)
    (Budget.remaining_ns tight)

let prop_budget_consumed_monotonic =
  QCheck.Test.make ~name:"Budget.consumed_ns never decreases across charges"
    ~count:500
    QCheck.(list (pair (int_range (-1000) 1000) (int_range (-1000) 1000)))
    (fun charges ->
      let b = Budget.create ~max_ns:10_000 () in
      let ok = ref true in
      List.iter
        (fun (hits, ns) ->
          let before_ns = Budget.consumed_ns b in
          let before_hits = Budget.hits b in
          (try Budget.charge ~hits ~ns b with Budget.Exhausted _ -> ());
          if Budget.consumed_ns b < before_ns || Budget.hits b < before_hits then
            ok := false)
        charges;
      !ok)

(* [Budget.t] is abstract, so [of_deadline_ms] is pinned behaviorally:
   what remains, and when the first charge trips. *)
let test_budget_of_deadline_ms () =
  let b = Budget.create ~max_ns:(40 * 1_000_000) () in
  let d = Budget.of_deadline_ms 40 in
  check (Alcotest.option Alcotest.int) "40 ms = 40e6 ns" (Budget.remaining_ns b)
    (Budget.remaining_ns d);
  Budget.charge ~ns:(40 * 1_000_000) d;
  check Alcotest.bool "exactly spent is not yet tripped" false (Budget.exhausted d);
  (match Budget.charge ~ns:1 d with
  | () -> Alcotest.fail "charge past the deadline did not trip"
  | exception Budget.Exhausted { ns; max_ns; _ } ->
    check Alcotest.int "consumed at trip" (40_000_000 + 1) ns;
    check (Alcotest.option Alcotest.int) "ceiling reported" (Some 40_000_000) max_ns);
  let hits_too = Budget.of_deadline_ms ~max_hits:3 1_000 in
  check (Alcotest.option Alcotest.int) "hit ceiling carried" (Some 3)
    (Budget.remaining_hits hits_too)

let test_budget_of_deadline_ms_zero_and_negative () =
  List.iter
    (fun ms ->
      let b = Budget.of_deadline_ms ms in
      check (Alcotest.option Alcotest.int)
        (Printf.sprintf "%d ms leaves nothing" ms)
        (Some 0) (Budget.remaining_ns b);
      check Alcotest.bool "zero charge does not trip" false
        (match Budget.charge ~ns:0 b with () -> false | exception Budget.Exhausted _ -> true);
      check Alcotest.bool
        (Printf.sprintf "first positive charge trips at %d ms" ms)
        true
        (match Budget.charge ~ns:1 b with
        | () -> false
        | exception Budget.Exhausted _ -> true))
    [ 0; -1; -1_000_000 ]

let test_budget_of_deadline_ms_saturates () =
  (* A deadline past max_int / 1e6 must clamp, not overflow into a
     negative ceiling that trips immediately. *)
  let huge = Budget.of_deadline_ms max_int in
  check (Alcotest.option Alcotest.int) "clamped to max_int" (Some max_int)
    (Budget.remaining_ns huge);
  check Alcotest.bool "still affords work" true (Budget.affords_ns huge ~ns:1_000_000)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_to_string_shapes () =
  check Alcotest.string "null" "null" (Json.to_string Json.Null);
  check Alcotest.string "bool" "true" (Json.to_string (Json.Bool true));
  check Alcotest.string "int" "-42" (Json.to_string (Json.Int (-42)));
  check Alcotest.string "integral float keeps a point" "1.0"
    (Json.to_string (Json.Float 1.0));
  check Alcotest.string "string escaped" "\"a\\\"b\\n\""
    (Json.to_string (Json.Str "a\"b\n"));
  check Alcotest.string "array" "[1,2]" (Json.to_string (Json.Arr [ Json.Int 1; Json.Int 2 ]));
  check Alcotest.string "object" "{\"k\":\"v\"}"
    (Json.to_string (Json.Obj [ ("k", Json.Str "v") ]))

let test_json_of_string_errors () =
  let err s = match Json.of_string s with Ok _ -> None | Error e -> Some e in
  check Alcotest.bool "trailing garbage" true (err "1 2" <> None);
  check Alcotest.bool "unterminated string" true (err "\"abc" <> None);
  check Alcotest.bool "bare word" true (err "nope" <> None);
  check Alcotest.bool "empty input" true (err "" <> None);
  check Alcotest.bool "unclosed object" true (err "{\"k\": 1" <> None);
  let deep = String.make 70 '[' ^ "1" ^ String.make 70 ']' in
  check Alcotest.bool "nesting beyond 64 rejected" true (err deep <> None)

let test_json_accessors () =
  match Json.of_string "{\"a\": 1, \"b\": \"two\", \"c\": [true]}" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
    check (Alcotest.option Alcotest.int) "int member" (Some 1)
      (Option.bind (Json.member "a" j) Json.to_int_opt);
    check (Alcotest.option Alcotest.string) "string member" (Some "two")
      (Option.bind (Json.member "b" j) Json.to_string_opt);
    check Alcotest.bool "missing member" true (Json.member "z" j = None);
    check Alcotest.bool "wrong type" true
      (Option.bind (Json.member "c" j) Json.to_int_opt = None)

(* Generator over the float-free fragment: floats have their own repr
   subtleties; everything else must round-trip exactly. *)
let json_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) int;
            map (fun s -> Json.Str s) string;
          ]
      in
      if n <= 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 2))));
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 4) (pair string (self (n / 2)))) );
          ])

let prop_json_round_trip =
  QCheck.Test.make ~name:"Json.of_string (to_string v) = v" ~count:300
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> Json.equal v v'
      | Error _ -> false)

let prop_json_string_escaping =
  QCheck.Test.make ~name:"string escaping round-trips arbitrary bytes" ~count:500
    QCheck.string
    (fun s ->
      match Json.of_string (Json.to_string (Json.Str s)) with
      | Ok (Json.Str s') -> s = s'
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let test_zipf_rank_order () =
  let z = Sampler.Zipf.create ~n:50 ~s:1.1 in
  let rng = Rng.create 99 in
  let counts = Array.make 50 0 in
  for _ = 1 to 50_000 do
    let r = Sampler.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  check Alcotest.bool "rank 0 most frequent" true (counts.(0) > counts.(5));
  check Alcotest.bool "rank 1 beats rank 20" true (counts.(1) > counts.(20))

let test_zipf_probability_sums_to_one () =
  let z = Sampler.Zipf.create ~n:100 ~s:0.9 in
  let total = ref 0. in
  for k = 0 to 99 do
    total := !total +. Sampler.Zipf.probability z k
  done;
  check (Alcotest.float 1e-9) "mass sums to 1" 1.0 !total

let prop_zipf_in_support =
  QCheck.Test.make ~name:"Zipf.sample lies in support" ~count:300
    QCheck.(pair small_int (int_range 1 500))
    (fun (seed, n) ->
      let z = Sampler.Zipf.create ~n ~s:1.0 in
      let rng = Rng.create seed in
      let r = Sampler.Zipf.sample z rng in
      r >= 0 && r < Sampler.Zipf.support z)

let prop_power_law_in_range =
  QCheck.Test.make ~name:"Power_law.sample respects [x_min, x_max]" ~count:300
    QCheck.(triple small_int (int_range 1 50) (int_range 0 500))
    (fun (seed, x_min, span) ->
      let x_max = x_min + span in
      let rng = Rng.create seed in
      let v = Sampler.Power_law.sample rng ~alpha:2.1 ~x_min ~x_max in
      v >= x_min && v <= x_max)

let test_power_law_skew () =
  let rng = Rng.create 5 in
  let small = ref 0 and large = ref 0 in
  for _ = 1 to 20_000 do
    let v = Sampler.Power_law.sample rng ~alpha:2.3 ~x_min:1 ~x_max:1000 in
    if v <= 3 then incr small;
    if v >= 100 then incr large
  done;
  check Alcotest.bool "most mass at small values" true (!small > 10_000);
  check Alcotest.bool "tail exists" true (!large > 0)

let test_preferential_attachment_bias () =
  let p = Sampler.Preferential.create ~n:100 ~smoothing:1.0 in
  Sampler.Preferential.add_weight p 7 500.;
  let rng = Rng.create 11 in
  let hits = ref 0 in
  for _ = 1 to 5_000 do
    if Sampler.Preferential.sample p rng = 7 then incr hits
  done;
  (* Node 7 holds 500/600 of the mass, so ~83% of draws. *)
  check Alcotest.bool "weighted node dominates" true (!hits > 3_500)

let prop_preferential_in_range =
  QCheck.Test.make ~name:"Preferential.sample in [0, n)" ~count:200
    QCheck.(pair small_int (int_range 1 300))
    (fun (seed, n) ->
      let p = Sampler.Preferential.create ~n ~smoothing:0.5 in
      let rng = Rng.create seed in
      let v = Sampler.Preferential.sample p rng in
      v >= 0 && v < n)

let test_preferential_total_weight () =
  let p = Sampler.Preferential.create ~n:10 ~smoothing:1.0 in
  check (Alcotest.float 1e-6) "initial mass" 10.0 (Sampler.Preferential.total_weight p);
  Sampler.Preferential.add_weight p 3 5.0;
  check (Alcotest.float 1e-6) "after add" 15.0 (Sampler.Preferential.total_weight p)

(* ------------------------------------------------------------------ *)
(* Topn                                                                *)
(* ------------------------------------------------------------------ *)

let test_topn_basic () =
  let t = Topn.create 3 in
  List.iter
    (fun (k, s) -> Topn.add t ~key:k ~score:s ~value:())
    [ ("a", 5); ("b", 9); ("c", 1); ("d", 7); ("e", 3) ];
  let got = List.map (fun (k, s, ()) -> (k, s)) (Topn.to_list t) in
  check
    Alcotest.(list (pair string int))
    "best three, best first"
    [ ("b", 9); ("d", 7); ("a", 5) ]
    got

let test_topn_tie_break () =
  let t = Topn.create 2 in
  List.iter (fun k -> Topn.add t ~key:k ~score:4 ~value:()) [ "z"; "m"; "a"; "q" ];
  let got = List.map (fun (k, _, ()) -> k) (Topn.to_list t) in
  check Alcotest.(list string) "smaller keys win ties" [ "a"; "m" ] got

let test_topn_zero_limit () =
  let t = Topn.create 0 in
  Topn.add t ~key:"x" ~score:10 ~value:();
  check Alcotest.int "nothing kept" 0 (Topn.size t)

let prop_topn_matches_sort =
  QCheck.Test.make ~name:"Topn = sort-then-take" ~count:300
    QCheck.(pair (int_range 0 20) (list (pair (int_range 0 50) (int_range 0 100))))
    (fun (n, pairs) ->
      (* Deduplicate keys to avoid ambiguity about which score a key has. *)
      let tbl = Hashtbl.create 16 in
      List.iter (fun (k, s) -> Hashtbl.replace tbl k s) pairs;
      let entries = Hashtbl.fold (fun k s acc -> (k, s) :: acc) tbl [] in
      let t = Topn.create n in
      List.iter (fun (k, s) -> Topn.add t ~key:k ~score:s ~value:()) entries;
      let got = List.map (fun (k, s, ()) -> (k, s)) (Topn.to_list t) in
      let expected =
        let sorted =
          List.sort
            (fun (k1, s1) (k2, s2) ->
              if s1 <> s2 then compare s2 s1 else compare k1 k2)
            entries
        in
        List.filteri (fun i _ -> i < n) sorted
      in
      got = expected)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_summary_moments () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check Alcotest.int "count" 8 (Stats.Summary.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.Summary.mean s);
  check (Alcotest.float 1e-4) "stddev (sample)" 2.13809 (Stats.Summary.stddev s);
  check (Alcotest.float 1e-9) "min" 2.0 (Stats.Summary.min s);
  check (Alcotest.float 1e-9) "max" 9.0 (Stats.Summary.max s)

let test_summary_percentile () =
  let s = Stats.Summary.create () in
  for i = 1 to 100 do
    Stats.Summary.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.Summary.percentile s 50.);
  check (Alcotest.float 1e-9) "p100" 100.0 (Stats.Summary.percentile s 100.);
  check (Alcotest.float 1e-9) "p1" 1.0 (Stats.Summary.percentile s 1.)

let test_summary_percentile_invalid () =
  let empty = Stats.Summary.create () in
  Alcotest.check_raises "empty summary"
    (Invalid_argument "Stats.Summary.percentile: no samples") (fun () ->
      ignore (Stats.Summary.percentile empty 50.));
  let s = Stats.Summary.create () in
  Stats.Summary.add s 1.;
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.Summary.percentile: p outside [0, 100]") (fun () ->
      ignore (Stats.Summary.percentile s 101.))

let test_summary_percentile_cache_invalidation () =
  (* The sorted cache must be rebuilt after add: a percentile read
     between adds must not freeze the distribution. *)
  let s = Stats.Summary.create () in
  Stats.Summary.add s 10.;
  check (Alcotest.float 1e-9) "single sample" 10.0 (Stats.Summary.percentile s 50.);
  Stats.Summary.add s 1.;
  Stats.Summary.add s 2.;
  Stats.Summary.add s 3.;
  check (Alcotest.float 1e-9) "p100 after more adds" 10.0
    (Stats.Summary.percentile s 100.);
  check (Alcotest.float 1e-9) "p25 sees new minimum" 1.0 (Stats.Summary.percentile s 25.)

let test_timing_monotonic () =
  (* now_ns reads CLOCK_MONOTONIC: successive reads never go backwards
     and measured sections never come out negative. *)
  let a = Stats.Timing.now_ns () in
  let b = Stats.Timing.now_ns () in
  check Alcotest.bool "clock does not step backwards" true (Int64.compare b a >= 0);
  let (), ms = Stats.Timing.time_ms (fun () -> ignore (Sys.opaque_identity 1)) in
  check Alcotest.bool "elapsed never negative" true (ms >= 0.)

let prop_summary_mean_between_min_max =
  QCheck.Test.make ~name:"mean within [min, max]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      Stats.Summary.mean s >= Stats.Summary.min s -. 1e-9
      && Stats.Summary.mean s <= Stats.Summary.max s +. 1e-9)

let test_measure_protocol () =
  let calls = ref 0 in
  let summary = Stats.Timing.measure_ms ~warmup:3 ~runs:5 (fun () -> incr calls) in
  check Alcotest.int "warmup + runs executions" 8 !calls;
  check Alcotest.int "recorded runs" 5 (Stats.Summary.count summary)

let test_histogram () =
  let h = Stats.histogram ~buckets:[ 0; 10; 100 ] [ 1; 5; 10; 55; 99; 100; 3000 ] in
  check
    Alcotest.(list (pair string int))
    "bucketing"
    [ ("<0", 0); ("0-9", 2); ("10-99", 3); ("100+", 2) ]
    h

let test_histogram_underflow () =
  (* Samples below the first bound land in the explicit underflow
     bucket instead of silently vanishing. *)
  let h = Stats.histogram ~buckets:[ 10; 100 ] [ -5; 0; 9; 10; 50; 200 ] in
  check
    Alcotest.(list (pair string int))
    "underflow counted"
    [ ("<10", 3); ("10-99", 2); ("100+", 1) ]
    h

let prop_histogram_counts_sum =
  QCheck.Test.make ~name:"histogram bucket counts sum to sample count" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 8) (int_range (-50) 500))
        (list (int_range (-100) 1000)))
    (fun (buckets, xs) ->
      let h = Stats.histogram ~buckets xs in
      List.fold_left (fun acc (_, n) -> acc + n) 0 h = List.length xs)

(* ------------------------------------------------------------------ *)
(* Text_table                                                          *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let out =
    Text_table.render ~header:[ "name"; "n" ] [ [ "user"; "10" ]; [ "tweet"; "2" ] ]
  in
  let lines = String.split_on_char '\n' out in
  check Alcotest.bool "contains header row" true
    (List.exists (fun l -> l = "| name  | n  |") lines)

let test_table_pads_short_rows () =
  let out = Text_table.render ~header:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  check Alcotest.bool "no exception; row padded" true (String.length out > 0)

let test_fmt_int () =
  check Alcotest.string "grouping" "24,789,792" (Text_table.fmt_int 24789792);
  check Alcotest.string "small" "42" (Text_table.fmt_int 42);
  check Alcotest.string "negative" "-1,234" (Text_table.fmt_int (-1234))

let test_fmt_ms () =
  check Alcotest.string "micro" "0.042" (Text_table.fmt_ms 0.042);
  check Alcotest.string "small" "1.30" (Text_table.fmt_ms 1.3);
  check Alcotest.string "large" "128" (Text_table.fmt_ms 128.4)

(* ------------------------------------------------------------------ *)
(* Tsv                                                                 *)
(* ------------------------------------------------------------------ *)

let prop_tsv_roundtrip =
  QCheck.Test.make ~name:"Tsv escape/unescape roundtrip" ~count:500
    QCheck.(string_gen Gen.printable)
    (fun s -> Tsv.unescape (Tsv.escape s) = s)

let test_tsv_escape_specials () =
  check Alcotest.string "tab" "a\\tb" (Tsv.escape "a\tb");
  check Alcotest.string "newline" "a\\nb" (Tsv.escape "a\nb");
  check Alcotest.bool "escaped has no tab" true
    (not (String.contains (Tsv.escape "x\ty\nz") '\t'))

let test_tsv_file_roundtrip () =
  let path = Filename.temp_file "mgq_test" ".tsv" in
  let oc = open_out path in
  Tsv.write_row oc [ "1"; "hello world"; "with\ttab" ];
  Tsv.write_row oc [ "2"; "second"; "line\nbreak" ];
  close_out oc;
  let rows = ref [] in
  let n = Tsv.read_rows path (fun r -> rows := r :: !rows) in
  Sys.remove path;
  check Alcotest.int "row count" 2 n;
  check
    Alcotest.(list (list string))
    "content preserved"
    [ [ "1"; "hello world"; "with\ttab" ]; [ "2"; "second"; "line\nbreak" ] ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Crc32                                                               *)
(* ------------------------------------------------------------------ *)

(* Several domains released at once make the process's first digest
   calls: each must get the digest a single domain computes. This
   suite runs first so no earlier test has touched the checksum. *)
let test_crc32_first_calls_from_domains () =
  let inputs = Array.init 4 (fun i -> String.init (1000 + i) (fun j -> Char.chr ((i + j) land 0xFF))) in
  let ready = Atomic.make 0 in
  let workers =
    Array.map
      (fun s ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < Array.length inputs do
              Domain.cpu_relax ()
            done;
            Crc32.digest s))
      inputs
  in
  let concurrent = Array.map Domain.join workers in
  check Alcotest.int32 "check value" 0xCBF43926l (Crc32.digest "123456789");
  Array.iteri
    (fun i s -> check Alcotest.int32 (Printf.sprintf "domain %d" i) (Crc32.digest s) concurrent.(i))
    inputs

(* ------------------------------------------------------------------ *)

(* ---------------- verdict ---------------- *)

let test_verdict_passed () =
  let v name passed = { Verdict.name; passed; detail = "" } in
  check Alcotest.bool "empty list passes" true (Verdict.passed []);
  check Alcotest.bool "all passed" true (Verdict.passed [ v "a" true; v "b" true ]);
  check Alcotest.bool "one failed verdict fails the list" false
    (Verdict.passed [ v "a" true; v "b" false; v "c" true ])

let suite =
  [
    ( "crc32",
      [ Alcotest.test_case "first calls from several domains" `Quick test_crc32_first_calls_from_domains ]
    );
    ( "rng",
      [
        Alcotest.test_case "deterministic streams" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "copy independence" `Quick test_rng_copy_independent;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "uniformity" `Quick test_rng_int_uniformity;
        qtest prop_rng_int_bounds;
        qtest prop_rng_int_in_bounds;
        qtest prop_rng_float_bounds;
        qtest prop_shuffle_is_permutation;
        qtest prop_sample_without_replacement;
      ] );
    ( "budget",
      [
        Alcotest.test_case "negative charge saturates" `Quick
          test_budget_negative_charge_saturates;
        Alcotest.test_case "remaining_ns / affords_ns" `Quick
          test_budget_remaining_and_affords;
        Alcotest.test_case "sub caps at remaining" `Quick test_budget_sub_caps_at_remaining;
        Alcotest.test_case "of_deadline_ms" `Quick test_budget_of_deadline_ms;
        Alcotest.test_case "of_deadline_ms at zero and negative" `Quick
          test_budget_of_deadline_ms_zero_and_negative;
        Alcotest.test_case "of_deadline_ms saturates" `Quick
          test_budget_of_deadline_ms_saturates;
        qtest prop_budget_consumed_monotonic;
      ] );
    ( "json",
      [
        Alcotest.test_case "to_string shapes" `Quick test_json_to_string_shapes;
        Alcotest.test_case "of_string error cases" `Quick test_json_of_string_errors;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
        qtest prop_json_round_trip;
        qtest prop_json_string_escaping;
      ] );
    ( "sampler",
      [
        Alcotest.test_case "zipf rank ordering" `Quick test_zipf_rank_order;
        Alcotest.test_case "zipf mass sums to one" `Quick test_zipf_probability_sums_to_one;
        Alcotest.test_case "power-law skew" `Quick test_power_law_skew;
        Alcotest.test_case "preferential bias" `Quick test_preferential_attachment_bias;
        Alcotest.test_case "preferential total weight" `Quick test_preferential_total_weight;
        qtest prop_zipf_in_support;
        qtest prop_power_law_in_range;
        qtest prop_preferential_in_range;
      ] );
    ( "topn",
      [
        Alcotest.test_case "basic selection" `Quick test_topn_basic;
        Alcotest.test_case "tie break on key" `Quick test_topn_tie_break;
        Alcotest.test_case "zero limit" `Quick test_topn_zero_limit;
        qtest prop_topn_matches_sort;
      ] );
    ( "stats",
      [
        Alcotest.test_case "summary moments" `Quick test_summary_moments;
        Alcotest.test_case "percentiles" `Quick test_summary_percentile;
        Alcotest.test_case "percentile invalid input" `Quick test_summary_percentile_invalid;
        Alcotest.test_case "percentile cache invalidation" `Quick
          test_summary_percentile_cache_invalidation;
        Alcotest.test_case "monotonic timing" `Quick test_timing_monotonic;
        Alcotest.test_case "measure protocol" `Quick test_measure_protocol;
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "histogram underflow" `Quick test_histogram_underflow;
        qtest prop_histogram_counts_sum;
        qtest prop_summary_mean_between_min_max;
      ] );
    ( "text_table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
        Alcotest.test_case "fmt_int" `Quick test_fmt_int;
        Alcotest.test_case "fmt_ms" `Quick test_fmt_ms;
      ] );
    ( "verdict", [ Alcotest.test_case "passed" `Quick test_verdict_passed ] );
    ( "tsv",
      [
        Alcotest.test_case "escape specials" `Quick test_tsv_escape_specials;
        Alcotest.test_case "file roundtrip" `Quick test_tsv_file_roundtrip;
        qtest prop_tsv_roundtrip;
      ] );
  ]

let () = Alcotest.run "mgq_util" suite
