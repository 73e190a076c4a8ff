(** Query budgets: bounded db hits and/or a simulated-time deadline.

    The paper's Q2.3 / Q6.1-style expansions either finish or explode;
    a budget turns "explode" into graceful degradation. A budget is a
    mutable meter charged as work happens — db hits by the storage
    layer (attach it to a {e cost model}), expansion steps by the
    traversal frameworks — and raises {!Exhausted} the moment a limit
    is crossed. Because charging happens inside lazy sequences, the
    results produced before exhaustion are already in the caller's
    hands: catching {!Exhausted} yields a partial answer plus exact
    consumption counters.

    Deadlines are expressed in {e simulated} nanoseconds (the
    deterministic clock of {!Mgq_storage.Cost_model}), so budgeted runs
    are reproducible bit-for-bit. *)

type t

exception
  Exhausted of {
    hits : int;  (** hits consumed when the budget tripped *)
    max_hits : int option;
    ns : int;  (** simulated nanoseconds consumed *)
    max_ns : int option;
  }

val create : ?max_hits:int -> ?max_ns:int -> unit -> t
(** A budget with the given ceilings; omitted ceilings are unlimited.
    At least one limit should be set for the budget to ever trip. *)

val of_deadline_ms : ?max_hits:int -> int -> t
(** A budget from a wall-clock deadline in milliseconds, as carried by
    the [X-Deadline-Ms] request header. Saturating in both directions:
    zero or negative deadlines become an already-empty budget (the
    first positive charge trips it), and deadlines past
    [max_int / 1_000_000] clamp to [max_int] nanoseconds instead of
    overflowing. *)

val charge : ?hits:int -> ?ns:int -> t -> unit
(** Add consumption, then raise {!Exhausted} if either ceiling has
    been crossed. Defaults are zero. Charging saturates: negative
    deltas (a simulated clock re-armed backwards) count as zero, so
    {!consumed_ns} and {!hits} never decrease. *)

val exhausted : t -> bool
(** Whether either ceiling has been crossed. *)

val hits : t -> int
val consumed_ns : t -> int

val remaining_hits : t -> int option
(** [None] when the budget has no hit ceiling. *)

val remaining_ns : t -> int option
(** Simulated nanoseconds left before the deadline trips; [None] when
    the budget has no time ceiling. Never negative. *)

val affords_ns : t -> ns:int -> bool
(** Whether charging [ns] more would still be within the deadline —
    the degradation test: a query that cannot afford its full
    traversal should fall back to a cheaper plan {e before} starting,
    instead of tripping mid-way. Always true without a time ceiling. *)

val sub : ?max_hits:int -> ?max_ns:int -> t -> t
(** A child budget carved out of [t]'s remaining headroom: each
    ceiling is the minimum of the parent's remaining allowance and the
    explicit cap. This is how a deadline propagates across router hops
    and cluster retries — every hop charges its own sub-budget, and no
    hop can spend more than the request has left. *)
