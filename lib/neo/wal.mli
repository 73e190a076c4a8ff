(** Write-ahead log: checksummed logical redo records on the
    simulated disk, with log sequence numbers.

    Each committed transaction appends one record — the framed,
    CRC-32-checksummed marshalling of its logical operations ({!op})
    — stamped with a monotonically increasing {e log sequence number}
    (LSN). Appends go through {!Mgq_storage.Sim_disk} page writes, so
    an injected crash can land inside a record and tear it;
    {!fold_ops_stop} replays exactly the prefix of intact records and
    stops at the first torn or missing frame, which is the whole
    recovery contract: {e a transaction is durable iff its record is
    fully on disk with a valid checksum}.

    LSNs survive {!truncate} (a checkpoint advances {!base_lsn}
    instead of resetting numbering), so a replication consumer's
    high-water mark stays meaningful across the log's lifetime.
    {!fold_from} streams the suffix after a given LSN — the shipping
    primitive the cluster layer is built on.

    Frame layout, byte-packed across pages:
    [0xA5][lsn:8 LE][len:4 LE][crc32:4 LE][payload]. After every
    append (and on {!truncate}) the next frame's header position is
    zeroed so a scan terminates at the true tail rather than running
    into stale bytes. *)

type op =
  | Create_node of { id : int; label : string; props : (string * Mgq_core.Value.t) list }
  | Create_edge of {
      id : int;
      etype : string;
      src : int;
      dst : int;
      props : (string * Mgq_core.Value.t) list;
    }
  | Set_node_prop of { node : int; key : string; value : Mgq_core.Value.t }
  | Set_edge_prop of { edge : int; key : string; value : Mgq_core.Value.t }
  | Delete_edge of int
  | Delete_node of int
  | Densify of int
  | Create_index of { label : string; property : string }
  | Drop_index of { label : string; property : string }
      (** Logical redo operations. Creations carry the id the record
          was allocated under: ids are allocation-ordered, but rolled
          back (or merely concurrent) transactions consume allocations
          without ever reaching the log, so replay cannot infer ids by
          counting — it re-allocates up to the recorded id, leaving
          the same tombstone holes the original run had. Automatic
          densification is {e not} logged — it re-fires
          deterministically during replay; only the importer's
          explicit [Densify] calls are. *)

type stop =
  | Clean  (** the zero sentinel (or end of allocated space): caught up *)
  | Torn_header  (** non-magic, non-zero bytes where a header should be *)
  | Truncated_payload of { lsn : int }
      (** a frame header whose payload runs past the allocated log *)
  | Crc_mismatch of { lsn : int }  (** payload bytes fail their checksum *)
  | Lsn_mismatch of { expected : int; found : int }
      (** a valid-looking frame carrying the wrong sequence number
          (stale bytes from an earlier log generation) *)
      (** Why a scan stopped. [Clean] means "caught up"; everything
          else means the bytes past this point are not to be trusted —
          a replica distinguishes end-of-shipment from a corrupt
          shipment with this. *)

val stop_to_string : stop -> string

val encode_ops : op list -> string
(** Codec-encoded op payload (the bytes a frame carries): tag byte
    per op, zigzag varint ids, length-prefixed strings. Stable across
    compiler versions, unlike [Marshal]. *)

val decode_ops : string -> op list
(** Inverse of {!encode_ops}; raises [Mgq_codec.Codec.Error] on
    malformed input (trailing bytes included). *)

type t

val create : ?base_lsn:int -> Mgq_storage.Sim_disk.t -> t
(** An empty log allocating its pages from [disk]. [base_lsn]
    (default 0) seeds LSN numbering — a database rebuilt from a
    snapshot passes the snapshot's high-water mark so replayed and
    newly appended records continue the original sequence. *)

val clone : t -> Mgq_storage.Sim_disk.t -> t
(** The same log over [disk], a {!Mgq_storage.Sim_disk.clone} of this
    log's disk: frames live on the copied pages, so the clone holds the
    same bytes, base and LSNs, and appends to either log leave the
    other unchanged. *)

val append_ops : t -> op list -> int
(** Append one record (one committed transaction); returns its LSN.
    May raise the armed fault plan's exceptions mid-frame — the torn-
    tail case {!fold_ops_stop} discards. *)

val fold_ops_stop : t -> ('a -> lsn:int -> op list -> 'a) -> 'a -> 'a * stop
(** Scan the log from the start, folding over each intact record's
    LSN and operations; stops at the first invalid frame (torn tail or
    end of log) and returns {e why} the scan stopped. *)

val fold_from : t -> lsn:int -> ('a -> lsn:int -> op list -> 'a) -> 'a -> 'a * stop
(** [fold_from t ~lsn f init] streams the suffix strictly after [lsn]
    (the caller's high-water mark): records [lsn+1 .. last_lsn t].
    Raises [Invalid_argument] when [lsn] predates {!base_lsn} (the
    records were compacted away by a checkpoint). *)

val fold_frames_from : t -> lsn:int -> ('a -> lsn:int -> string -> 'a) -> 'a -> 'a * stop
(** Like {!fold_from} but yields each record's raw (CRC-verified)
    payload bytes without decoding — the byte-blob shipping primitive:
    a replica enqueues the payload and defers {!decode_ops} to apply
    time. *)

val records : t -> int
(** Records appended since creation/truncation (in-memory counter;
    after a crash, count the records {!fold_ops_stop} yields instead). *)

val base_lsn : t -> int
(** LSN of the last record truncated away by a checkpoint; the first
    record in this log carries [base_lsn + 1]. 0 for a fresh log. *)

val last_lsn : t -> int
(** LSN of the newest appended record ([base_lsn t + records t]). *)

val length_bytes : t -> int

val corrupt_payload_byte : t -> lsn:int -> unit
(** Fault-injection aid: flip one payload byte of the record carrying
    [lsn] in place (bypassing armed faults), so a scan reaching it
    reports {!Crc_mismatch}.
    @raise Invalid_argument when no such record is in this log. *)

val truncate : t -> unit
(** Empty the log (checkpoint). LSN numbering continues ({!base_lsn}
    advances past the truncated records). Pages stay allocated for
    reuse; the head sentinel is zeroed with fault injection suspended,
    modelling an atomic metadata update. *)
