(* Round-trip properties and pinned byte-level regressions for the
   binary codec layer (DESIGN.md §16): varint/zigzag integers,
   length-prefixed strings, checksummed pages, and the WAL op codec
   built on top of them. *)

module Codec = Mgq_codec.Codec
module Wal = Mgq_neo.Wal
module Value = Mgq_core.Value

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let enc f =
  let e = Codec.Enc.create () in
  f e;
  Codec.Enc.contents e

let dec s f =
  let d = Codec.Dec.of_string s in
  let v = f d in
  Codec.Dec.expect_end d;
  v

let roundtrip ef df v = dec (enc (fun e -> ef e v)) df

let expect_codec_error f =
  match f () with
  | _ -> Alcotest.fail "expected Codec.Error"
  | exception Codec.Error _ -> ()

let hex s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s))))

(* ------------------------------------------------------------------ *)
(* Pinned byte-level regressions                                       *)
(* ------------------------------------------------------------------ *)

(* LEB128 boundaries: 1-byte payloads end at 127, 2-byte at 16383. *)
let test_varint_boundaries () =
  let bytes v = hex (enc (fun e -> Codec.Enc.varint e v)) in
  check Alcotest.string "0" "00" (bytes 0);
  check Alcotest.string "1" "01" (bytes 1);
  check Alcotest.string "127" "7f" (bytes 127);
  check Alcotest.string "128" "8001" (bytes 128);
  check Alcotest.string "16383" "ff7f" (bytes 16383);
  check Alcotest.string "16384" "808001" (bytes 16384)

(* Zigzag interleaves signs: 0,-1,1,-2,... -> 0,1,2,3,... *)
let test_zigzag_pinned () =
  let bytes v = hex (enc (fun e -> Codec.Enc.int e v)) in
  check Alcotest.string "0" "00" (bytes 0);
  check Alcotest.string "-1" "01" (bytes (-1));
  check Alcotest.string "1" "02" (bytes 1);
  check Alcotest.string "-2" "03" (bytes (-2));
  check Alcotest.string "-64" "7f" (bytes (-64));
  check Alcotest.string "64" "8001" (bytes 64)

let test_extremes () =
  let rt v = roundtrip Codec.Enc.int Codec.Dec.int v in
  check Alcotest.int "min_int" min_int (rt min_int);
  check Alcotest.int "max_int" max_int (rt max_int);
  check Alcotest.int "min_int+1" (min_int + 1) (rt (min_int + 1));
  let rtu v = roundtrip Codec.Enc.uvarint Codec.Dec.uvarint v in
  check Alcotest.int "uvarint max_int" max_int (rtu max_int);
  check Alcotest.int "uvarint of negative bit pattern" (-1) (rtu (-1));
  check Alcotest.int "uvarint min_int" min_int (rtu min_int)

let test_varint_rejects_negative () =
  expect_codec_error (fun () -> enc (fun e -> Codec.Enc.varint e (-1)))

let test_strings () =
  let rt s = roundtrip Codec.Enc.string Codec.Dec.string s in
  check Alcotest.string "empty" "" (rt "");
  check Alcotest.string "embedded nul" "a\000b" (rt "a\000b");
  check Alcotest.string "long" (String.make 70_000 'x') (rt (String.make 70_000 'x'));
  (* Pinned: length prefix then raw bytes. *)
  check Alcotest.string "layout" "03616263" (hex (enc (fun e -> Codec.Enc.string e "abc")))

let test_fixed_width () =
  check Alcotest.string "i64 layout" "efcdab9078563412"
    (hex (enc (fun e -> Codec.Enc.i64 e 0x12345678_90ABCDEFL)));
  check Alcotest.string "u32 layout" "78563412"
    (hex (enc (fun e -> Codec.Enc.u32 e 0x12345678l)))

(* ------------------------------------------------------------------ *)
(* qcheck round-trip properties                                        *)
(* ------------------------------------------------------------------ *)

(* Full-range int generator that actually visits the edges. *)
let any_int =
  QCheck.(
    oneof
      [
        oneofl [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int; 127; 128; 16383; 16384 ];
        int;
        map (fun (a, b) -> a lxor (b lsl 31)) (pair int int);
      ])

let prop_int_roundtrip =
  QCheck.Test.make ~name:"int roundtrips (zigzag)" ~count:500 any_int (fun v ->
      roundtrip Codec.Enc.int Codec.Dec.int v = v)

let prop_uvarint_roundtrip =
  QCheck.Test.make ~name:"uvarint roundtrips (raw bit pattern)" ~count:500 any_int (fun v ->
      roundtrip Codec.Enc.uvarint Codec.Dec.uvarint v = v)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrips (non-negative)" ~count:500
    QCheck.(map abs int)
    (fun v -> roundtrip Codec.Enc.varint Codec.Dec.varint v = v)

let prop_i64_roundtrip =
  QCheck.Test.make ~name:"i64 roundtrips" ~count:200 QCheck.(map Int64.of_int int) (fun v ->
      roundtrip Codec.Enc.i64 Codec.Dec.i64 v = v)

let prop_float_roundtrip =
  QCheck.Test.make ~name:"float roundtrips bit-exactly" ~count:200 QCheck.float (fun v ->
      let v' = roundtrip Codec.Enc.float Codec.Dec.float v in
      Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v'))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string roundtrips" ~count:300 QCheck.string (fun s ->
      roundtrip Codec.Enc.string Codec.Dec.string s = s)

let prop_list_roundtrip =
  QCheck.Test.make ~name:"int list roundtrips" ~count:200 QCheck.(list any_int) (fun l ->
      roundtrip (fun e -> Codec.Enc.list e Codec.Enc.int) (fun d -> Codec.Dec.list d Codec.Dec.int) l = l)

let prop_option_roundtrip =
  QCheck.Test.make ~name:"option roundtrips" ~count:200 QCheck.(option string) (fun o ->
      roundtrip
        (fun e -> Codec.Enc.option e Codec.Enc.string)
        (fun d -> Codec.Dec.option d Codec.Dec.string)
        o
      = o)

let value_gen =
  QCheck.(
    oneof
      [
        always Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) any_int;
        map (fun f -> Value.Float f) float;
        map (fun s -> Value.Str s) string;
      ])
  |> QCheck.set_print Value.to_display

let prop_value_roundtrip =
  QCheck.Test.make ~name:"property value roundtrips" ~count:300 value_gen (fun v ->
      roundtrip Codec.Enc.value Codec.Dec.value v = v)

(* Concatenated heterogeneous stream: decoding must consume exactly
   what encoding produced, field by field. *)
let prop_stream_roundtrip =
  QCheck.Test.make ~name:"mixed stream re-reads field-exact" ~count:200
    QCheck.(triple any_int string (list (pair any_int bool)))
    (fun (n, s, pairs) ->
      let blob =
        enc (fun e ->
            Codec.Enc.int e n;
            Codec.Enc.string e s;
            Codec.Enc.list e
              (fun e (a, b) ->
                Codec.Enc.int e a;
                Codec.Enc.bool e b)
              pairs)
      in
      dec blob (fun d ->
          let n' = Codec.Dec.int d in
          let s' = Codec.Dec.string d in
          let pairs' =
            Codec.Dec.list d (fun d ->
                let a = Codec.Dec.int d in
                (a, Codec.Dec.bool d))
          in
          (n', s', pairs'))
      = (n, s, pairs))

(* ------------------------------------------------------------------ *)
(* Pages                                                               *)
(* ------------------------------------------------------------------ *)

let test_page_empty () =
  let page = Codec.Page.seal "" in
  check Alcotest.int "0-length page is just the header" Codec.Page.header_bytes
    (String.length page);
  check Alcotest.string "payload of empty page" "" (Codec.Page.payload page)

let prop_page_roundtrip =
  QCheck.Test.make ~name:"page seal/payload roundtrips" ~count:300 QCheck.string (fun s ->
      Codec.Page.payload (Codec.Page.seal s) = s)

let test_page_corruption () =
  let page = Codec.Page.seal "some payload bytes" in
  (* Any single flipped byte — header or payload — must be caught. *)
  for i = 0 to String.length page - 1 do
    let b = Bytes.of_string page in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    expect_codec_error (fun () -> Codec.Page.payload (Bytes.to_string b))
  done;
  (* Truncation anywhere. *)
  for len = 0 to String.length page - 1 do
    expect_codec_error (fun () -> Codec.Page.payload (String.sub page 0 len))
  done;
  (* Trailing garbage. *)
  expect_codec_error (fun () -> Codec.Page.payload (page ^ "\x01"))

let test_truncated_decode () =
  let blob = enc (fun e -> Codec.Enc.string e "hello") in
  for len = 0 to String.length blob - 1 do
    expect_codec_error (fun () ->
        dec (String.sub blob 0 len) Codec.Dec.string)
  done;
  (* Unterminated varint: ten continuation bytes. *)
  expect_codec_error (fun () -> dec (String.make 10 '\xff') Codec.Dec.uvarint);
  (* Trailing bytes are drift, not slack. *)
  expect_codec_error (fun () -> dec (blob ^ "\x00") Codec.Dec.string)

(* ------------------------------------------------------------------ *)
(* WAL op codec                                                        *)
(* ------------------------------------------------------------------ *)

let sample_props = [ ("name", Value.Str "u\0001"); ("n", Value.Int (-42)); ("x", Value.Null) ]

let all_ops =
  [
    Wal.Create_node { id = 0; label = ""; props = [] };
    Wal.Create_node { id = max_int; label = "user"; props = sample_props };
    Wal.Create_edge { id = 7; etype = "follows"; src = 1; dst = 2; props = sample_props };
    Wal.Set_node_prop { node = 3; key = "bio"; value = Value.Str (String.make 300 'b') };
    Wal.Set_edge_prop { edge = 4; key = "w"; value = Value.Float 0.5 };
    Wal.Delete_edge 9;
    Wal.Delete_node 10;
    Wal.Densify 11;
    Wal.Create_index { label = "user"; property = "name" };
    Wal.Drop_index { label = "user"; property = "name" };
  ]

let test_wal_ops_roundtrip () =
  (* Each constructor alone, then the whole list in one record. *)
  List.iter
    (fun op ->
      check Alcotest.bool "single op roundtrips" true (Wal.decode_ops (Wal.encode_ops [ op ]) = [ op ]))
    all_ops;
  check Alcotest.bool "op list roundtrips" true (Wal.decode_ops (Wal.encode_ops all_ops) = all_ops);
  check Alcotest.bool "empty op list roundtrips" true (Wal.decode_ops (Wal.encode_ops []) = [])

let test_wal_ops_reject_garbage () =
  expect_codec_error (fun () -> Wal.decode_ops "\xfe\x01\x02");
  let blob = Wal.encode_ops all_ops in
  expect_codec_error (fun () -> Wal.decode_ops (String.sub blob 0 (String.length blob - 1)));
  expect_codec_error (fun () -> Wal.decode_ops (blob ^ "\x00"))

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "codec-pinned",
      [
        Alcotest.test_case "varint boundaries 127/128/16383/16384" `Quick test_varint_boundaries;
        Alcotest.test_case "zigzag pinned bytes" `Quick test_zigzag_pinned;
        Alcotest.test_case "min_int/max_int extremes" `Quick test_extremes;
        Alcotest.test_case "varint rejects negatives" `Quick test_varint_rejects_negative;
        Alcotest.test_case "strings incl. empty" `Quick test_strings;
        Alcotest.test_case "fixed-width layouts" `Quick test_fixed_width;
        Alcotest.test_case "0-length page" `Quick test_page_empty;
        Alcotest.test_case "page corruption detected" `Quick test_page_corruption;
        Alcotest.test_case "truncated decodes raise" `Quick test_truncated_decode;
        Alcotest.test_case "wal ops roundtrip per constructor" `Quick test_wal_ops_roundtrip;
        Alcotest.test_case "wal ops reject garbage" `Quick test_wal_ops_reject_garbage;
      ] );
    ( "codec-props",
      [
        qtest prop_int_roundtrip;
        qtest prop_uvarint_roundtrip;
        qtest prop_varint_roundtrip;
        qtest prop_i64_roundtrip;
        qtest prop_float_roundtrip;
        qtest prop_string_roundtrip;
        qtest prop_list_roundtrip;
        qtest prop_option_roundtrip;
        qtest prop_value_roundtrip;
        qtest prop_stream_roundtrip;
        qtest prop_page_roundtrip;
      ] );
  ]

let () = Alcotest.run "mgq_codec" suite
