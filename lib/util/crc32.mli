(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial).

    Used to checksum write-ahead-log records and snapshot payloads so
    torn or corrupted bytes are detected before they are decoded.
    Every function is safe to call from any domain. *)

val digest : string -> int32
(** Checksum of a whole string. *)

val digest_sub : string -> pos:int -> len:int -> int32
(** Checksum of a substring; [pos]/[len] must be in bounds. *)

val update : int32 -> char -> int32
(** Fold one byte into a running checksum started from
    {!initial}. *)

val initial : int32
val finalize : int32 -> int32
