(* Table-driven CRC-32 with the reflected IEEE polynomial 0xEDB88320,
   matching zlib's crc32(). The table is built once at module
   initialisation, so any domain may call in first; the running
   checksum is kept in a native int (32 bits of a 63-bit int) so the
   per-byte loop allocates nothing. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let initial = 0xFFFFFFFFl

let update_int crc byte = table.((crc lxor Char.code byte) land 0xFF) lxor (crc lsr 8)

let update crc byte = Int32.of_int (update_int (Int32.to_int crc land 0xFFFFFFFF) byte)

let finalize crc = Int32.logxor crc 0xFFFFFFFFl

let digest_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.digest_sub: out of bounds";
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := update_int !crc (String.unsafe_get s i)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let digest s = digest_sub s ~pos:0 ~len:(String.length s)
