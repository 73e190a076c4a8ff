(* Domain safety of the name dictionaries: the single-writer pin,
   writer handover, and lock-free lookups against a growing table.
   A suite of its own keeps the test names short of Alcotest's
   column truncation. *)

module Dict = Mgq_neo.Dict

let check = Alcotest.check

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

(* The one-entry memo of [find] under a writer: a reader alternating
   two names misses the memo on every call and republishes it, while
   the writer interns new names. Each answer must be that name's id.
   A name looked up before it is interned is not memoised as absent,
   and a clone answers from the memo it copied. *)
let test_dict_memo_alternating_keys () =
  let d = Dict.create () in
  let uid = "uid" and followers = "followers" in
  let uid_id = Dict.intern d uid and followers_id = Dict.intern d followers in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let lookups = ref 0 and bad = ref 0 in
        while not (Atomic.get stop) do
          if Dict.find d uid <> Some uid_id then incr bad;
          if Dict.find d followers <> Some followers_id then incr bad;
          lookups := !lookups + 2
        done;
        (!lookups, !bad))
  in
  for i = 0 to 499 do
    ignore (Dict.intern d ("k" ^ string_of_int i) : int);
    check Alcotest.(option int) "writer's own lookup" (Some followers_id) (Dict.find d followers)
  done;
  Atomic.set stop true;
  let lookups, bad = Domain.join reader in
  check Alcotest.bool "reader ran" true (lookups > 0);
  check Alcotest.int "every alternating lookup got its own id" 0 bad;
  let late = "late" in
  check Alcotest.(option int) "unknown before intern" None (Dict.find d late);
  let late_id = Dict.intern d late in
  check Alcotest.(option int) "found once interned" (Some late_id) (Dict.find d late);
  let copy = Dict.clone d in
  check Alcotest.(option int) "clone answers from the copied memo" (Some late_id) (Dict.find copy late);
  check Alcotest.(option int) "clone misses resolve" (Some uid_id) (Dict.find copy uid)

let suite =
  [
    ( "domain-safety",
      [
        Alcotest.test_case "dict single-writer assertion" `Quick test_dict_single_writer;
        Alcotest.test_case "dict lock-free reads during interns" `Quick test_dict_concurrent_reads;
        Alcotest.test_case "dict memo alternating keys" `Quick test_dict_memo_alternating_keys;
      ] );
  ]

let () = Alcotest.run "mgq_dict" suite
