(** Circuit breakers around backend call sites.

    A breaker watches one backend (a replica, an engine API) and trips
    {e Open} after [failure_threshold] consecutive failures, shedding
    calls instantly instead of letting them pile onto a failing
    dependency. After [open_for] time units it moves to {e Half_open}
    and admits a seeded fraction of traffic as probes;
    [probe_successes] consecutive probe successes re-close it, any
    probe failure re-opens it.

    The breaker is clockless: every entry point takes [~now] on
    whatever integer timeline the caller lives on (cluster ticks,
    simulated nanoseconds). [on_open] / [on_close] hooks let a caller
    tie state transitions to topology — e.g.
    {!Mgq_cluster.Router.eject} / [restore]. *)

type state = Closed | Open | Half_open

val state_to_string : state -> string

type config = {
  failure_threshold : int;  (** consecutive failures that trip the breaker *)
  open_for : int;  (** cooldown before probing, in the caller's time unit *)
  probe_successes : int;  (** consecutive probe successes that re-close *)
  probe_p : float;  (** fraction of half-open traffic admitted as probes *)
}

val default_config : config
(** 5 failures, cooldown 10, 2 probe successes, probe half of traffic. *)

type t

val create :
  ?config:config ->
  ?on_open:(unit -> unit) ->
  ?on_close:(unit -> unit) ->
  Mgq_util.Rng.t ->
  t
(** A fresh Closed breaker. The [rng] seeds probe admission only.
    @raise Invalid_argument on a non-positive threshold. *)

val state : t -> now:int -> state
(** Current state, after advancing any due Open -> Half_open
    transition. *)

val allow : t -> now:int -> bool
(** May a call proceed right now? [false] counts a rejection. In
    Half_open, admission is a seeded coin-flip at [probe_p]. *)

val record_success : t -> now:int -> unit
(** Report a completed call. Resets the failure streak; in Half_open,
    advances the probe streak and re-closes at [probe_successes]. *)

val record_failure : t -> now:int -> unit
(** Report a failed call. In Closed, trips the breaker at the
    threshold; in Half_open, re-opens immediately. *)

(** {1 Counters} *)

val opens : t -> int

val rejections : t -> int
(** Calls refused by {!allow} while Open or awaiting probe admission. *)
