(* Binary codec: LEB128 varints (zigzag for signed), length-prefixed
   strings, little-endian fixed-width ints, checksummed pages.

   The encoder is a [Buffer]; the decoder is a cursor over a string.
   Both sides are total over each other's output: any byte sequence a
   decoder rejects raises [Error], never an assert or an
   out-of-bounds read. *)

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* Zigzag maps small-magnitude signed ints to small unsigned ints:
   0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ... OCaml ints are 63-bit on
   64-bit platforms, so the sign lives in bit 62; [asr 62] smears it
   across the word and the xor folds it into bit 0. [min_int] and
   [max_int] both round-trip (the shifts wrap consistently). *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor (- (u land 1))

module Enc = struct
  type t = Buffer.t

  let create ?(size = 64) () = Buffer.create size
  let length = Buffer.length

  let u8 b n =
    if n < 0 || n > 0xFF then err "Enc.u8: %d out of range" n;
    Buffer.add_char b (Char.unsafe_chr n)

  (* LEB128 over the raw bit pattern. [lsr] treats the int as
     unsigned, so negative inputs (full 63-bit patterns) terminate
     after at most 9 bytes. *)
  let uvarint b n =
    let u = ref n in
    while !u lsr 7 <> 0 do
      Buffer.add_char b (Char.unsafe_chr (0x80 lor (!u land 0x7F)));
      u := !u lsr 7
    done;
    Buffer.add_char b (Char.unsafe_chr (!u land 0x7F))

  let varint b n =
    if n < 0 then err "Enc.varint: negative %d (use Enc.int)" n;
    uvarint b n

  let int b n = uvarint b (zigzag n)
  let bool b v = Buffer.add_char b (if v then '\001' else '\000')
  let i64 b v = Buffer.add_int64_le b v
  let u32 b v = Buffer.add_int32_le b v
  let float b f = i64 b (Int64.bits_of_float f)

  let string b s =
    varint b (String.length s);
    Buffer.add_string b s

  let option b enc = function
    | None -> bool b false
    | Some v ->
      bool b true;
      enc b v

  let list b enc xs =
    varint b (List.length xs);
    List.iter (fun x -> enc b x) xs

  let value b (v : Mgq_core.Value.t) =
    match v with
    | Null -> u8 b 0
    | Bool v ->
      u8 b 1;
      bool b v
    | Int n ->
      u8 b 2;
      int b n
    | Float f ->
      u8 b 3;
      float b f
    | Str s ->
      u8 b 4;
      string b s

  let contents = Buffer.contents
end

module Dec = struct
  type t = { src : string; limit : int; mutable pos : int }

  let of_string ?(pos = 0) ?len src =
    let limit = match len with None -> String.length src | Some l -> pos + l in
    if pos < 0 || limit > String.length src || pos > limit then
      err "Dec.of_string: window [%d,%d) outside %d bytes" pos limit (String.length src);
    { src; limit; pos }

  let pos t = t.pos
  let remaining t = t.limit - t.pos
  let at_end t = t.pos >= t.limit
  let expect_end t = if not (at_end t) then err "Dec: %d trailing bytes" (remaining t)

  let byte t =
    if t.pos >= t.limit then err "Dec: truncated at %d" t.pos;
    let c = String.unsafe_get t.src t.pos in
    t.pos <- t.pos + 1;
    Char.code c

  let u8 = byte

  let uvarint t =
    let v = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      let b = byte t in
      (* 9 groups of 7 bits cover the 63-bit int; a 10th group means
         the input is not one of ours. *)
      if !shift > 56 then err "Dec.uvarint: overlong varint";
      v := !v lor ((b land 0x7F) lsl !shift);
      shift := !shift + 7;
      continue := b land 0x80 <> 0
    done;
    !v

  let varint t =
    let v = uvarint t in
    if v < 0 then err "Dec.varint: negative payload";
    v

  let int t = unzigzag (uvarint t)

  let bool t =
    match byte t with
    | 0 -> false
    | 1 -> true
    | b -> err "Dec.bool: bad byte %d" b

  let i64 t =
    if remaining t < 8 then err "Dec.i64: truncated at %d" t.pos;
    let v = String.get_int64_le t.src t.pos in
    t.pos <- t.pos + 8;
    v

  let u32 t =
    if remaining t < 4 then err "Dec.u32: truncated at %d" t.pos;
    let v = String.get_int32_le t.src t.pos in
    t.pos <- t.pos + 4;
    v

  let float t = Int64.float_of_bits (i64 t)

  let string t =
    let len = varint t in
    if len > remaining t then err "Dec.string: length %d exceeds %d remaining" len (remaining t);
    let s = String.sub t.src t.pos len in
    t.pos <- t.pos + len;
    s

  let option t dec = if bool t then Some (dec t) else None

  let list t dec =
    let n = varint t in
    List.init n (fun _ -> dec t)

  let value t : Mgq_core.Value.t =
    match u8 t with
    | 0 -> Null
    | 1 -> Bool (bool t)
    | 2 -> Int (int t)
    | 3 -> Float (float t)
    | 4 -> Str (string t)
    | tag -> err "Dec.value: bad tag %d" tag
end

module Page = struct
  let header_bytes = 8

  let seal payload =
    let b = Buffer.create (header_bytes + String.length payload) in
    Buffer.add_int32_le b (Int32.of_int (String.length payload));
    Buffer.add_int32_le b (Mgq_util.Crc32.digest payload);
    Buffer.add_string b payload;
    Buffer.contents b

  let payload page =
    if String.length page < header_bytes then
      err "Page: truncated header (%d bytes)" (String.length page);
    let len = Int32.to_int (String.get_int32_le page 0) in
    let crc = String.get_int32_le page 4 in
    if len < 0 || String.length page <> header_bytes + len then
      err "Page: length %d does not match %d payload bytes" len
        (String.length page - header_bytes);
    if Mgq_util.Crc32.digest_sub page ~pos:header_bytes ~len <> crc then
      err "Page: checksum mismatch";
    String.sub page header_bytes len
end
