(* The name dictionaries under their one owner: dense ids, the
   hit-only memo of [find], and clones that intern independently. *)

module Dict = Mgq_neo.Dict

let check = Alcotest.check

let test_dense_ids () =
  let d = Dict.create () in
  let names = List.init 50 (fun i -> "k" ^ string_of_int i) in
  List.iteri (fun i n -> check Alcotest.int n i (Dict.intern d n)) names;
  check Alcotest.int "re-intern keeps the id" 7 (Dict.intern d "k7");
  check Alcotest.(list string) "names in id order" names (Dict.names d);
  List.iteri (fun i n -> check Alcotest.string "name of id" n (Dict.name d i)) names

(* A miss is not memoised: the name is found as soon as it exists. *)
let test_unknown_then_interned () =
  let d = Dict.create () in
  let late = "late" in
  check Alcotest.(option int) "empty dictionary" None (Dict.find d late);
  ignore (Dict.intern d "other" : int);
  check Alcotest.(option int) "unknown" None (Dict.find d late);
  let id = Dict.intern d late in
  check Alcotest.(option int) "found once interned" (Some id) (Dict.find d late)

(* [Q_neo_api.q1_select] reads two keys per row: each alternating
   lookup misses the memo and must still return its own id. *)
let test_alternating_keys () =
  let d = Dict.create () in
  let uid = "uid" and followers = "followers" in
  let uid_id = Dict.intern d uid and followers_id = Dict.intern d followers in
  for _ = 1 to 100 do
    check Alcotest.(option int) uid (Some uid_id) (Dict.find d uid);
    check Alcotest.(option int) followers (Some followers_id) (Dict.find d followers)
  done;
  check Alcotest.(option int) "equal string, other buffer" (Some uid_id)
    (Dict.find d (String.concat "" [ "u"; "id" ]))

let test_clone_independent () =
  let d = Dict.create () in
  let a = Dict.intern d "a" and b = Dict.intern d "b" in
  ignore (Dict.find d "b" : int option);
  let c = Dict.clone d in
  check Alcotest.(option int) "clone shares a" (Some a) (Dict.find c "a");
  check Alcotest.(option int) "clone shares b" (Some b) (Dict.find c "b");
  let only_d = Dict.intern d "only-d" in
  let only_c = Dict.intern c "only-c" in
  check Alcotest.int "both sides take the next id" only_d only_c;
  check Alcotest.(option int) "source does not see the clone's" None (Dict.find d "only-c");
  check Alcotest.(option int) "clone does not see the source's" None (Dict.find c "only-d");
  check Alcotest.(list string) "source names" [ "a"; "b"; "only-d" ] (Dict.names d);
  check Alcotest.(list string) "clone names" [ "a"; "b"; "only-c" ] (Dict.names c)

let test_name_out_of_range () =
  let d = Dict.create () in
  ignore (Dict.intern d "a" : int);
  List.iter
    (fun id ->
      match Dict.name d id with
      | n -> Alcotest.failf "id %d named %S" id n
      | exception Mgq_core.Types.Schema_error _ -> ())
    [ -1; 1; 100 ]

let suite =
  [
    ( "dict",
      [
        Alcotest.test_case "dense ids in creation order" `Quick test_dense_ids;
        Alcotest.test_case "unknown name then interned" `Quick test_unknown_then_interned;
        Alcotest.test_case "alternating keys" `Quick test_alternating_keys;
        Alcotest.test_case "clone interns independently" `Quick test_clone_independent;
        Alcotest.test_case "name out of range" `Quick test_name_out_of_range;
      ] );
  ]

let () = Alcotest.run "mgq_dict" suite
