(* Property and unit tests for mgq_bitmap: every operation is checked
   against the Stdlib Set model, including across the sparse/dense
   container boundary at 4096 entries per chunk. *)

module Bitmap = Mgq_bitmap.Bitmap
module Iset = Set.Make (Int)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let values_gen = QCheck.(list (int_range 0 300_000))

let set_of_list xs = Iset.of_list xs
let bitmap_matches_set bm set = Bitmap.to_list bm = Iset.elements set

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  let b = Bitmap.create () in
  check Alcotest.bool "is_empty" true (Bitmap.is_empty b);
  check Alcotest.int "cardinality" 0 (Bitmap.cardinality b);
  check Alcotest.(list int) "to_list" [] (Bitmap.to_list b);
  check Alcotest.(option int) "min" None (Bitmap.min_elt b);
  check Alcotest.(option int) "max" None (Bitmap.max_elt b)

let test_add_mem () =
  let b = Bitmap.create () in
  Bitmap.add b 5;
  Bitmap.add b 100_000;
  Bitmap.add b 5;
  check Alcotest.bool "mem 5" true (Bitmap.mem b 5);
  check Alcotest.bool "mem 100000" true (Bitmap.mem b 100_000);
  check Alcotest.bool "not mem 6" false (Bitmap.mem b 6);
  check Alcotest.int "no duplicate" 2 (Bitmap.cardinality b);
  check Alcotest.(list int) "sorted" [ 5; 100_000 ] (Bitmap.to_list b)

let test_remove () =
  let b = Bitmap.of_list [ 1; 2; 3 ] in
  Bitmap.remove b 2;
  Bitmap.remove b 99;
  check Alcotest.(list int) "removed" [ 1; 3 ] (Bitmap.to_list b);
  Bitmap.remove b 1;
  Bitmap.remove b 3;
  check Alcotest.bool "empty after removing all" true (Bitmap.is_empty b)

let test_dense_conversion () =
  (* Push one chunk past the 4096 array threshold and back. *)
  let b = Bitmap.create () in
  for i = 0 to 9_999 do
    Bitmap.add b i
  done;
  check Alcotest.int "card after dense" 10_000 (Bitmap.cardinality b);
  check Alcotest.bool "mem mid" true (Bitmap.mem b 5_000);
  for i = 0 to 9_999 do
    if i mod 2 = 0 then Bitmap.remove b i
  done;
  check Alcotest.int "card after removals" 5_000 (Bitmap.cardinality b);
  check Alcotest.bool "odd kept" true (Bitmap.mem b 4_999);
  check Alcotest.bool "even gone" false (Bitmap.mem b 5_000)

let test_min_max_nth () =
  let b = Bitmap.of_list [ 70_000; 3; 9; 150_000 ] in
  check Alcotest.(option int) "min" (Some 3) (Bitmap.min_elt b);
  check Alcotest.(option int) "max" (Some 150_000) (Bitmap.max_elt b);
  check Alcotest.int "nth 0" 3 (Bitmap.nth b 0);
  check Alcotest.int "nth 2" 70_000 (Bitmap.nth b 2);
  check Alcotest.int "nth 3" 150_000 (Bitmap.nth b 3);
  Alcotest.check_raises "nth out of range" (Invalid_argument "Bitmap.nth") (fun () ->
      ignore (Bitmap.nth b 4))

let test_union_into () =
  let a = Bitmap.of_list [ 1; 2 ] in
  let b = Bitmap.of_list [ 2; 3; 70_000 ] in
  Bitmap.union_into a b;
  check Alcotest.(list int) "merged" [ 1; 2; 3; 70_000 ] (Bitmap.to_list a);
  check Alcotest.(list int) "src untouched" [ 2; 3; 70_000 ] (Bitmap.to_list b)

let test_copy_isolation () =
  let a = Bitmap.of_list [ 1; 2; 3 ] in
  let b = Bitmap.copy a in
  Bitmap.add b 4;
  Bitmap.remove b 1;
  check Alcotest.(list int) "original untouched" [ 1; 2; 3 ] (Bitmap.to_list a);
  check Alcotest.(list int) "copy changed" [ 2; 3; 4 ] (Bitmap.to_list b)

let test_exists () =
  let b = Bitmap.of_list [ 2; 4; 6 ] in
  check Alcotest.bool "exists even" true (Bitmap.exists (fun v -> v mod 2 = 0) b);
  check Alcotest.bool "no odd" false (Bitmap.exists (fun v -> v mod 2 = 1) b)

let test_memory_words_grows () =
  let small = Bitmap.of_list [ 1 ] in
  let big = Bitmap.create () in
  for i = 0 to 20_000 do
    Bitmap.add big i
  done;
  check Alcotest.bool "bigger footprint" true
    (Bitmap.memory_words big > Bitmap.memory_words small)

(* ------------------------------------------------------------------ *)
(* Properties against the Set model                                    *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~name:"of_list/to_list = sorted dedup" ~count:300 values_gen
    (fun xs -> bitmap_matches_set (Bitmap.of_list xs) (set_of_list xs))

let prop_mem =
  QCheck.Test.make ~name:"mem agrees with Set.mem" ~count:300
    QCheck.(pair values_gen (int_range 0 300_000))
    (fun (xs, probe) ->
      Bitmap.mem (Bitmap.of_list xs) probe = Iset.mem probe (set_of_list xs))

let prop_union =
  QCheck.Test.make ~name:"union agrees with Set.union" ~count:300
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      bitmap_matches_set
        (Bitmap.union (Bitmap.of_list xs) (Bitmap.of_list ys))
        (Iset.union (set_of_list xs) (set_of_list ys)))

let prop_inter =
  QCheck.Test.make ~name:"inter agrees with Set.inter" ~count:300
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      bitmap_matches_set
        (Bitmap.inter (Bitmap.of_list xs) (Bitmap.of_list ys))
        (Iset.inter (set_of_list xs) (set_of_list ys)))

let prop_diff =
  QCheck.Test.make ~name:"diff agrees with Set.diff" ~count:300
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      bitmap_matches_set
        (Bitmap.diff (Bitmap.of_list xs) (Bitmap.of_list ys))
        (Iset.diff (set_of_list xs) (set_of_list ys)))

let prop_ops_do_not_mutate =
  QCheck.Test.make ~name:"union/inter/diff leave operands intact" ~count:200
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      let a = Bitmap.of_list xs and b = Bitmap.of_list ys in
      let before_a = Bitmap.to_list a and before_b = Bitmap.to_list b in
      ignore (Bitmap.union a b);
      ignore (Bitmap.inter a b);
      ignore (Bitmap.diff a b);
      Bitmap.to_list a = before_a && Bitmap.to_list b = before_b)

let prop_equal =
  QCheck.Test.make ~name:"equal = same element lists" ~count:300
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      let a = Bitmap.of_list xs and b = Bitmap.of_list ys in
      Bitmap.equal a b = (Bitmap.to_list a = Bitmap.to_list b))

let prop_equal_reflexive =
  QCheck.Test.make ~name:"equal is reflexive (incl. across representations)" ~count:100
    values_gen
    (fun xs ->
      let a = Bitmap.of_list xs in
      Bitmap.equal a (Bitmap.copy a))

let prop_subset =
  QCheck.Test.make ~name:"subset agrees with Set.subset" ~count:300
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      Bitmap.subset (Bitmap.of_list xs) (Bitmap.of_list ys)
      = Iset.subset (set_of_list xs) (set_of_list ys))

let prop_nth_enumerates =
  QCheck.Test.make ~name:"nth enumerates ascending members" ~count:200 values_gen
    (fun xs ->
      let b = Bitmap.of_list xs in
      let elements = Bitmap.to_list b in
      List.for_all2 (fun i v -> Bitmap.nth b i = v)
        (List.init (List.length elements) Fun.id)
        elements)

let prop_remove_model =
  QCheck.Test.make ~name:"add/remove sequence matches Set model" ~count:200
    QCheck.(list (pair bool (int_range 0 100_000)))
    (fun operations ->
      let b = Bitmap.create () in
      let model = ref Iset.empty in
      List.iter
        (fun (is_add, v) ->
          if is_add then begin
            Bitmap.add b v;
            model := Iset.add v !model
          end
          else begin
            Bitmap.remove b v;
            model := Iset.remove v !model
          end)
        operations;
      bitmap_matches_set b !model)

let prop_fold_order =
  QCheck.Test.make ~name:"fold visits ascending" ~count:200 values_gen
    (fun xs ->
      let b = Bitmap.of_list xs in
      let visited = List.rev (Bitmap.fold (fun acc v -> v :: acc) [] b) in
      visited = Bitmap.to_list b)

(* Exercise the dense container paths explicitly: chunks beyond 4096
   entries use the bitset representation. *)
let dense_gen =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(seed %d, seed %d)" a b)
    QCheck.Gen.(pair (int_bound 1000) (int_bound 1000))

let prop_dense_ops =
  QCheck.Test.make ~name:"set algebra on dense chunks" ~count:10 dense_gen
    (fun (seed1, seed2) ->
      let mk seed =
        let rng = Mgq_util.Rng.create seed in
        let xs = List.init 6_000 (fun _ -> Mgq_util.Rng.int rng 50_000) in
        (Bitmap.of_list xs, set_of_list xs)
      in
      let b1, s1 = mk seed1 and b2, s2 = mk seed2 in
      bitmap_matches_set (Bitmap.union b1 b2) (Iset.union s1 s2)
      && bitmap_matches_set (Bitmap.inter b1 b2) (Iset.inter s1 s2)
      && bitmap_matches_set (Bitmap.diff b1 b2) (Iset.diff s1 s2))

(* ------------------------------------------------------------------ *)
(* Binary codec: word boundaries and trailing partial words            *)
(* ------------------------------------------------------------------ *)

module Codec = Mgq_codec.Codec

let reload b = Bitmap.deserialize (Bitmap.serialize b)

let check_reload name b =
  let b' = reload b in
  check Alcotest.(list int) name (Bitmap.to_list b) (Bitmap.to_list b');
  check Alcotest.bool (name ^ " equal") true (Bitmap.equal b b')

(* Bits 63/64/127 straddle the encoder's 64-bit word boundaries: a top
   bit at 63 must keep word 0 as the last shipped word, at 64 force
   word 1, at 127/128 the same one word over. Exercised in both the
   sparse representation and (via a 5000-element filler) the dense
   one. *)
let test_codec_word_boundaries () =
  let boundary_bits = [ 0; 1; 62; 63; 64; 65; 126; 127; 128; 65_534; 65_535 ] in
  List.iter
    (fun bit -> check_reload (Printf.sprintf "sparse bit %d" bit) (Bitmap.of_list [ bit ]))
    boundary_bits;
  List.iter
    (fun bit ->
      let b = Bitmap.create () in
      for i = 0 to 4_999 do
        Bitmap.add b (100_000 + i)
      done;
      (* Second chunk goes dense too, with only the boundary bit's word
         region populated near the top. *)
      let base = 0x20000 in
      for i = 0 to 4_999 do
        Bitmap.add b (base + 30_000 + i)
      done;
      Bitmap.add b (base + bit);
      check_reload (Printf.sprintf "dense bit %d" bit) b)
    boundary_bits

(* Removing everything above a word boundary must shrink the shipped
   word count (the trailing partial word is trimmed), and the reload
   must still match element-for-element. *)
let test_codec_trailing_word_truncation () =
  let b = Bitmap.create () in
  for i = 0 to 8_191 do
    Bitmap.add b i
  done;
  let full_len = String.length (Bitmap.serialize b) in
  (* Drop everything past bit 63: words 1.. are now all-zero and must
     not be shipped. *)
  for i = 64 to 8_191 do
    Bitmap.remove b i
  done;
  let trimmed = Bitmap.serialize b in
  check Alcotest.bool "trailing zero words trimmed" true
    (String.length trimmed < full_len / 8);
  check_reload "after trailing-word removal" b;
  (* Same at an offset that leaves a partial last word (bit 100 lives
     in word 1 at bit 36). *)
  Bitmap.add b 100;
  check_reload "partial last word" b

let test_codec_empty_and_garbage () =
  check_reload "empty bitmap" (Bitmap.create ());
  let expect_error s =
    match Bitmap.deserialize s with
    | _ -> Alcotest.fail "expected Codec.Error"
    | exception Codec.Error _ -> ()
  in
  expect_error "";
  expect_error "garbage";
  let good = Bitmap.serialize (Bitmap.of_list [ 1; 2; 3 ]) in
  (* Flip one payload byte: the page checksum must catch it. *)
  let bad = Bytes.of_string good in
  Bytes.set bad (String.length good - 1) '\xff';
  expect_error (Bytes.to_string bad);
  expect_error (good ^ "\x00")

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"serialize/deserialize roundtrips" ~count:200
    QCheck.(pair values_gen (list (int_range 0 300_000)))
    (fun (xs, removals) ->
      let b = Bitmap.of_list xs in
      List.iter (Bitmap.remove b) removals;
      Bitmap.equal b (reload b))

(* Cross-boundary density: values packed straight across 63/64 and
   127/128 inside a dense container. *)
let prop_codec_boundary_runs =
  QCheck.Test.make ~name:"boundary runs roundtrip dense and sparse" ~count:100
    QCheck.(pair (int_range 0 200) (int_range 1 120))
    (fun (start, len) ->
      let sparse = Bitmap.of_list (List.init len (fun i -> start + i)) in
      let dense = Bitmap.copy sparse in
      for i = 0 to 4_999 do
        Bitmap.add dense (10_000 + i)
      done;
      Bitmap.equal sparse (reload sparse) && Bitmap.equal dense (reload dense))

let suite =
  [
    ( "bitmap-unit",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "add/mem" `Quick test_add_mem;
        Alcotest.test_case "remove" `Quick test_remove;
        Alcotest.test_case "dense conversion" `Quick test_dense_conversion;
        Alcotest.test_case "min/max/nth" `Quick test_min_max_nth;
        Alcotest.test_case "union_into" `Quick test_union_into;
        Alcotest.test_case "copy isolation" `Quick test_copy_isolation;
        Alcotest.test_case "exists" `Quick test_exists;
        Alcotest.test_case "memory_words" `Quick test_memory_words_grows;
      ] );
    ( "bitmap-props",
      [
        qtest prop_roundtrip;
        qtest prop_mem;
        qtest prop_union;
        qtest prop_inter;
        qtest prop_diff;
        qtest prop_ops_do_not_mutate;
        qtest prop_equal;
        qtest prop_equal_reflexive;
        qtest prop_subset;
        qtest prop_nth_enumerates;
        qtest prop_remove_model;
        qtest prop_fold_order;
        qtest prop_dense_ops;
      ] );
    ( "bitmap-codec",
      [
        Alcotest.test_case "word boundaries 63/64/127" `Quick test_codec_word_boundaries;
        Alcotest.test_case "trailing partial words trimmed" `Quick
          test_codec_trailing_word_truncation;
        Alcotest.test_case "empty + garbage" `Quick test_codec_empty_and_garbage;
        qtest prop_codec_roundtrip;
        qtest prop_codec_boundary_runs;
      ] );
  ]

let () = Alcotest.run "mgq_bitmap" suite
