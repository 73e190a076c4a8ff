(** Admission control: bounded queues instead of unbounded collapse.

    Two gates compose in front of the serving path:

    {ul
    {- a {e token bucket} bounding the absolute admitted rate
       ([rate_per_s], refilled from the caller's simulated clock;
       [0.] disables the gate), and}
    {- an {e AIMD concurrency limit} adapted to the backend's latency
       gradient: each completion compares its latency to a per-class
       moving minimum; near the floor the limit creeps up additively
       ([+1/limit]), inflated latency shrinks it multiplicatively.}}

    Shedding is priority-aware via per-class shares of the concurrency
    limit ({!Mgq_queries.Workload.cost_class}): cheap selects may fill
    the whole limit, moderate traffic 80%, expensive influence / path
    queries 50% — so under pressure the expensive tail sheds first.
    Rejected requests get a typed {!decision} with a [retry_after_ns]
    hint instead of queueing unboundedly. *)

type decision = Admitted | Rejected of { retry_after_ns : int }

type config = {
  rate_per_s : float;  (** token refill rate; [0.] = rate gate off *)
  burst : float;  (** bucket depth *)
  initial_limit : float;  (** starting concurrency limit *)
  min_limit : float;
  max_limit : float;
  tolerance : float;
      (** latency / floor ratio up to which the limit still grows *)
  decrease : float;  (** multiplicative decrease factor, in (0, 1) *)
  min_window : int;  (** samples per moving-minimum epoch *)
}

val default_config : config
(** No rate gate, limit 16 in [2, 256], tolerance 2.0, decrease 0.92,
    window 50. *)

type t

val create : ?config:config -> unit -> t
(** @raise Invalid_argument when [initial_limit] is outside
    [[min_limit, max_limit]]. *)

val offer : t -> now_ns:int -> cls:Mgq_queries.Workload.cost_class -> decision
(** Ask to admit one request of class [cls] at simulated time
    [now_ns]. [Admitted] takes an in-flight slot the caller must
    release via {!complete} or {!abandon}; [Rejected] suggests when
    retrying could succeed (token gap at the refill rate, or one floor
    service time when concurrency-limited). *)

val complete :
  t -> now_ns:int -> cls:Mgq_queries.Workload.cost_class -> latency_ns:int -> unit
(** Release the slot and feed the AIMD controller one latency sample.
    @raise Invalid_argument when nothing is in flight. *)

val abandon : t -> unit
(** Release the slot without a latency sample (the request failed
    downstream — e.g. a breaker refused it).
    @raise Invalid_argument when nothing is in flight. *)

val retry_after_seconds : int -> int
(** Round a [retry_after_ns] hint for the HTTP [Retry-After] header:
    ceiling to whole seconds, so a positive hint is never rounded down
    to 0 (which would tell well-behaved clients to retry immediately,
    re-creating the burst that got them rejected). Non-positive hints
    map to 0; absurdly large ones saturate instead of overflowing. *)

(** {1 Introspection} *)

val limit : t -> float
(** Current AIMD concurrency limit. *)

val inflight : t -> int
val admitted : t -> int

val shed : t -> Mgq_queries.Workload.cost_class -> int
(** Rejections per class. *)

val total_shed : t -> int

val latency_floor_ns : t -> Mgq_queries.Workload.cost_class -> int option
(** The class's current moving-minimum latency, once sampled. *)

val decreases : t -> int
