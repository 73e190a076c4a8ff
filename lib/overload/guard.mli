(** Breaker-guarded reads over a replication cluster.

    One {!Breaker} per replica, wired to the router's topology: a
    breaker that opens ejects its replica from rotation
    ({!Mgq_cluster.Router.eject}), so a failing backend stops
    receiving traffic instantly; when its half-open probes succeed it
    is restored. The guard interposes between
    {!Mgq_cluster.Cluster.choose} and {!Mgq_cluster.Cluster.serve}:
    every outcome is recorded against the chosen replica's breaker,
    and a failed call re-routes (against the now-smaller rotation)
    instead of surfacing the fault, falling back to the primary when
    no replica remains.

    Because Open implies ejected, routed traffic never reaches an open
    breaker — {!served_while_open} is the counter proving it (the O2
    bench oracle requires it to stay 0). Probes are therefore served
    {e deliberately}: at most one per {!read}, only on a half-open
    replica whose applied LSN satisfies the session's read-your-writes
    mark. *)

type t

val create : ?breaker_config:Breaker.config -> Mgq_cluster.Cluster.t -> Mgq_util.Rng.t -> t
(** A guard with a fresh Closed breaker per replica. [Breaker.open_for]
    is measured in cluster ticks. *)

val breaker : t -> int -> Breaker.t

val set_fault : t -> (replica:int -> now:int -> bool) -> unit
(** Install a fault hook consulted before each replica call — [true]
    fails the call without touching the replica (fault injection for
    tests and benches). *)

val read :
  t ->
  ?budget:Mgq_util.Budget.t ->
  session:Mgq_cluster.Router.session ->
  (Mgq_neo.Db.t -> 'a) ->
  'a
(** One guarded read: advance breakers on the cluster clock, serve a
    probe if one is due, otherwise route-check-serve with failure
    re-routing. [budget] is charged for router waits exactly as
    {!Mgq_cluster.Cluster.read}.
    @raise Mgq_cluster.Cluster.Unavailable when every path fails and
    the primary is down. *)

(** {1 Counters} *)

val probes : t -> int

val rerouted : t -> int
(** Calls that failed on a replica and were re-routed. *)

val served_while_open : t -> int
(** Reads served by a replica whose breaker was Open — must stay 0. *)
