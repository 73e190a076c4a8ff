(* Tests for the shared graph model: values (equality with numeric
   coercion, three-valued comparison, serialisation, hashing),
   property maps and the id/direction vocabulary. *)

module Value = Mgq_core.Value
module Property = Mgq_core.Property
module Types = Mgq_core.Types

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_equal_coercion () =
  check Alcotest.bool "int = float" true (Value.equal (Value.Int 1) (Value.Float 1.0));
  check Alcotest.bool "float = int" true (Value.equal (Value.Float 2.5) (Value.Float 2.5));
  check Alcotest.bool "int <> close float" false
    (Value.equal (Value.Int 1) (Value.Float 1.5));
  check Alcotest.bool "string equality" true
    (Value.equal (Value.Str "ab") (Value.Str "ab"));
  check Alcotest.bool "cross-type" false (Value.equal (Value.Str "1") (Value.Int 1))

let test_value_null_semantics () =
  check Alcotest.bool "null <> null" false (Value.equal Value.Null Value.Null);
  check Alcotest.bool "null <> int" false (Value.equal Value.Null (Value.Int 0))

let test_value_compare () =
  check Alcotest.(option int) "int order" (Some (-1))
    (Option.map (fun c -> compare c 0) (Value.compare_values (Value.Int 1) (Value.Int 2)));
  check Alcotest.bool "mixed numeric" true
    (Value.compare_values (Value.Int 1) (Value.Float 1.5) = Some (-1));
  check Alcotest.(option int) "incomparable" None
    (Value.compare_values (Value.Int 1) (Value.Str "x"));
  check Alcotest.(option int) "null incomparable" None
    (Value.compare_values Value.Null (Value.Int 1));
  check Alcotest.bool "bool order" true
    (Value.compare_values (Value.Bool false) (Value.Bool true) = Some (-1))

let test_value_truthiness () =
  check Alcotest.bool "true" true (Value.is_truthy (Value.Bool true));
  check Alcotest.bool "false" false (Value.is_truthy (Value.Bool false));
  check Alcotest.bool "int not truthy" false (Value.is_truthy (Value.Int 1));
  check Alcotest.bool "null not truthy" false (Value.is_truthy Value.Null)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-10_000) 10_000);
        map (fun f -> Value.Float f) (float_bound_inclusive 1000.);
        map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 20));
      ])

let value_arb = QCheck.make ~print:Value.to_display value_gen

let prop_hash_consistent_with_equal =
  QCheck.Test.make ~name:"equal values hash equally" ~count:500
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      (not (Value.equal a b)) || Value.hash_fold a = Value.hash_fold b)

let test_hash_coercion () =
  check Alcotest.int "Int 1 hashes like Float 1." (Value.hash_fold (Value.Int 1))
    (Value.hash_fold (Value.Float 1.0))

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"compare_values antisymmetry" ~count:500
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      match (Value.compare_values a b, Value.compare_values b a) with
      | Some x, Some y -> compare x 0 = compare 0 y
      | None, None -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Property maps                                                       *)
(* ------------------------------------------------------------------ *)

let test_property_basics () =
  let p = Property.of_list [ ("a", Value.Int 1); ("b", Value.Str "x") ] in
  check Alcotest.int "cardinal" 2 (Property.cardinal p);
  check Alcotest.bool "mem" true (Property.mem p "a");
  check Alcotest.bool "get" true (Property.get p "a" = Value.Int 1);
  check Alcotest.bool "absent is null" true (Property.get p "zzz" = Value.Null);
  check Alcotest.(list string) "keys sorted" [ "a"; "b" ] (Property.keys p)

let test_property_null_removes () =
  let p = Property.of_list [ ("a", Value.Int 1) ] in
  let p = Property.set p "a" Value.Null in
  check Alcotest.bool "removed" false (Property.mem p "a");
  (* null values in of_list are dropped too *)
  let q = Property.of_list [ ("x", Value.Null); ("y", Value.Int 2) ] in
  check Alcotest.int "only y" 1 (Property.cardinal q)

let test_property_later_bindings_win () =
  let p = Property.of_list [ ("k", Value.Int 1); ("k", Value.Int 2) ] in
  check Alcotest.bool "last wins" true (Property.get p "k" = Value.Int 2)

let test_property_union () =
  let base = Property.of_list [ ("a", Value.Int 1); ("b", Value.Int 2) ] in
  let over = Property.of_list [ ("b", Value.Int 99); ("c", Value.Int 3) ] in
  let u = Property.union base over in
  check Alcotest.bool "override wins" true (Property.get u "b" = Value.Int 99);
  check Alcotest.int "merged size" 3 (Property.cardinal u)

let prop_property_roundtrip =
  QCheck.Test.make ~name:"of_list/to_list keeps non-null last bindings" ~count:300
    QCheck.(list (pair (string_of_size Gen.(int_range 1 5)) small_int))
    (fun bindings ->
      let values = List.map (fun (k, v) -> (k, Value.Int v)) bindings in
      let p = Property.of_list values in
      List.for_all
        (fun (k, _) ->
          let expected = List.assoc k (List.rev values) in
          Value.equal (Property.get p k) expected)
        values)

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let test_direction_flip () =
  check Alcotest.bool "out" true (Types.flip Types.Out = Types.In);
  check Alcotest.bool "in" true (Types.flip Types.In = Types.Out);
  check Alcotest.bool "both" true (Types.flip Types.Both = Types.Both)

let test_other_end () =
  let e = { Types.id = 0; etype = "t"; src = 1; dst = 2 } in
  check Alcotest.int "from src" 2 (Types.other_end e 1);
  check Alcotest.int "from dst" 1 (Types.other_end e 2);
  check Alcotest.bool "not an endpoint" true
    (try
       ignore (Types.other_end e 9);
       false
     with Invalid_argument _ -> true);
  let loop = { Types.id = 1; etype = "t"; src = 5; dst = 5 } in
  check Alcotest.int "self loop" 5 (Types.other_end loop 5)

let suite =
  [
    ( "value",
      [
        Alcotest.test_case "equality coercion" `Quick test_value_equal_coercion;
        Alcotest.test_case "null semantics" `Quick test_value_null_semantics;
        Alcotest.test_case "comparison" `Quick test_value_compare;
        Alcotest.test_case "truthiness" `Quick test_value_truthiness;
        Alcotest.test_case "hash coercion" `Quick test_hash_coercion;
        qtest prop_hash_consistent_with_equal;
        qtest prop_compare_antisymmetric;
      ] );
    ( "property",
      [
        Alcotest.test_case "basics" `Quick test_property_basics;
        Alcotest.test_case "null removes" `Quick test_property_null_removes;
        Alcotest.test_case "later bindings win" `Quick test_property_later_bindings_win;
        Alcotest.test_case "union" `Quick test_property_union;
        qtest prop_property_roundtrip;
      ] );
    ( "types",
      [
        Alcotest.test_case "direction flip" `Quick test_direction_flip;
        Alcotest.test_case "other_end" `Quick test_other_end;
      ] );
  ]

let () = Alcotest.run "mgq_core" suite
