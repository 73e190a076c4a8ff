(** Binary codec layer: varint/zigzag integers, length-prefixed
    strings, and checksummed pages over [Bytes].

    Everything persistent or shipped between processes — WAL frames,
    checkpoint snapshots, bitmap spills — encodes through this module
    instead of [Marshal], so the byte format is stable across compiler
    versions, cheap to fault-inject at byte granularity, and dense (a
    small int costs one byte, not a boxed heap block).

    Integers use LEB128 varints. Signed values are zigzag-mapped
    first ([0, -1, 1, -2, ...] -> [0, 1, 2, 3, ...]) so small negative
    ids stay small on disk; the full 63-bit OCaml [int] range
    round-trips, including [min_int] and [max_int]. *)

exception Error of string
(** Raised by decoders on truncated input, malformed varints, bad
    tags, and checksum mismatches. Never raised for valid output of
    the matching encoder. *)

module Enc : sig
  type t

  val create : ?size:int -> unit -> t
  val length : t -> int

  val u8 : t -> int -> unit
  (** One byte; [0..255] enforced. *)

  val uvarint : t -> int -> unit
  (** LEB128 over the raw 63-bit pattern; any [int] accepted
      (negatives encode as their unsigned bit pattern, 9 bytes). *)

  val varint : t -> int -> unit
  (** LEB128 of a non-negative int; raises {!Error} on negatives
      (use {!int} for signed values). *)

  val int : t -> int -> unit
  (** Zigzag + LEB128; full [int] range. *)

  val bool : t -> bool -> unit

  val i64 : t -> int64 -> unit
  (** Fixed 8 bytes, little-endian. *)

  val u32 : t -> int32 -> unit
  (** Fixed 4 bytes, little-endian. *)

  val float : t -> float -> unit
  (** IEEE-754 bits as {!i64}. *)

  val string : t -> string -> unit
  (** {!varint} length prefix + raw bytes. *)

  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** {!varint} count prefix, then each element, in order. *)

  val value : t -> Mgq_core.Value.t -> unit
  (** Property values: tag byte + payload. *)

  val contents : t -> string
end

module Dec : sig
  type t

  val of_string : ?pos:int -> ?len:int -> string -> t
  val pos : t -> int
  val remaining : t -> int
  val at_end : t -> bool

  val expect_end : t -> unit
  (** Raises {!Error} if trailing bytes remain — catches encoder /
      decoder drift. *)

  val u8 : t -> int
  val uvarint : t -> int
  val varint : t -> int
  val int : t -> int
  val bool : t -> bool
  val i64 : t -> int64
  val u32 : t -> int32
  val float : t -> float
  val string : t -> string
  val option : t -> (t -> 'a) -> 'a option
  val list : t -> (t -> 'a) -> 'a list
  val value : t -> Mgq_core.Value.t
end

module Page : sig
  (** A checksummed byte blob: 4-byte little-endian payload length,
      4-byte little-endian CRC-32, then the payload. The same
      discipline the WAL and snapshots use, packaged for any
      subsystem that wants to persist an opaque region. *)

  val header_bytes : int

  val seal : string -> string
  (** Wrap a payload (empty payloads are legal: an 8-byte page). *)

  val payload : string -> string
  (** Unwrap and verify; raises {!Error} on truncation, length
      mismatch, or checksum mismatch. *)
end
