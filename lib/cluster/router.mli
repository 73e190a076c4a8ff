(** Consistency-aware read routing.

    The router load-balances reads across replicas under a pluggable
    policy while enforcing {e read-your-writes}: every session carries
    the LSN of its latest acknowledged write ([high_water]), and a
    read is only ever served by an instance whose applied LSN has
    reached it. When the policy's choice is too stale the router
    first {e redirects} (to the least-stale replica that qualifies;
    sticky sessions skip this to preserve locality), then {e waits}
    (each wait step advances simulated time via the caller's [wait]
    callback, typically charged to a {!Mgq_util.Budget} deadline), and
    finally {e falls back} to the primary, which trivially satisfies
    the guarantee. *)

type policy =
  | Round_robin  (** rotate across replicas *)
  | Least_lagged  (** always the replica with the highest applied LSN *)
  | Sticky  (** pin each session to [sid mod n] for cache locality *)

val policy_to_string : policy -> string

type session = {
  sid : int;
  mutable high_water : int;  (** LSN of the session's latest acked write *)
  mutable writes : int;
  mutable reads : int;
}

val session : int -> session
(** A fresh session with no writes observed yet. *)

type choice = Serve_replica of int | Serve_primary

type t

val create : policy -> n_replicas:int -> t
val policy_of : t -> policy

(** {1 Topology: breaker-driven ejection}

    A circuit breaker that opens on a failing replica removes it from
    rotation with {!eject} and puts it back with {!restore} once its
    probes succeed. Both clamp the round-robin cursor into the new
    (smaller or larger) rotation — a replica removed mid-rotation must
    not leave the cursor pointing past the end of the active set. *)

val eject : t -> int -> unit
(** Remove replica [i] from rotation (idempotent).
    @raise Invalid_argument on an out-of-range index. *)

val restore : t -> int -> unit
(** Return replica [i] to rotation (idempotent).
    @raise Invalid_argument on an out-of-range index. *)

val is_active : t -> int -> bool
val n_active : t -> int

val route :
  t ->
  session:session ->
  head_lsn:int ->
  applied:(unit -> int array) ->
  wait:(unit -> bool) ->
  choice
(** Choose where to serve one read. [applied ()] snapshots each
    replica's applied LSN (index [i] = replica [i]); [wait ()]
    advances simulated time one step and returns [false] when the
    deadline is exhausted. The returned choice always satisfies
    [applied >= session.high_water] (the primary counts as fully
    applied), and is never an ejected replica; when no replica is
    active every read falls to the primary. *)

(** {1 Accumulated routing statistics} *)

val served : t -> int array
(** Reads served per replica index. *)

val primary_served : t -> int
val redirects : t -> int
val waits : t -> int
val fallbacks : t -> int
val ejections : t -> int
val restores : t -> int

val staleness : t -> Mgq_util.Stats.Summary.t
(** Distribution of [head_lsn - applied_lsn] over served replica
    reads (frames of staleness accepted per read). *)
