(* A circuit breaker: Closed -> Open on consecutive failures, Open ->
   Half_open after a cooldown, Half_open -> Closed after enough probe
   successes (or back to Open on any probe failure). Time is whatever
   integer clock the caller runs on — cluster ticks, simulated ns —
   the breaker only compares and adds. *)

module Obs = Mgq_obs.Obs

type state = Closed | Open | Half_open

let state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

let m_transition to_state =
  Obs.counter "breaker.transitions" ~labels:[ ("to", state_to_string to_state) ]

let m_rejections = Obs.counter "breaker.rejections"
let m_probe_failures = Obs.counter "breaker.probe_failures"

type config = {
  failure_threshold : int;
  open_for : int;
  probe_successes : int;
  probe_p : float;
}

let default_config =
  { failure_threshold = 5; open_for = 10; probe_successes = 2; probe_p = 0.5 }

type t = {
  config : config;
  rng : Mgq_util.Rng.t;
  on_open : unit -> unit;
  on_close : unit -> unit;
  mutable state : state;
  mutable consecutive_failures : int;
  mutable probe_streak : int;
  mutable opened_at : int;
  mutable opens : int;
  mutable rejections : int;
}

let create ?(config = default_config) ?(on_open = ignore) ?(on_close = ignore) rng =
  if config.failure_threshold <= 0 then invalid_arg "Breaker.create: failure_threshold";
  if config.probe_successes <= 0 then invalid_arg "Breaker.create: probe_successes";
  {
    config;
    rng;
    on_open;
    on_close;
    state = Closed;
    consecutive_failures = 0;
    probe_streak = 0;
    opened_at = 0;
    opens = 0;
    rejections = 0;
  }

let opens t = t.opens
let rejections t = t.rejections

(* Advance the timed Open -> Half_open transition before reporting or
   acting — the breaker has no clock of its own. *)
let advance t ~now =
  if t.state = Open && now - t.opened_at >= t.config.open_for then begin
    t.state <- Half_open;
    t.probe_streak <- 0;
    Obs.Counter.incr (m_transition Half_open)
  end

let state t ~now =
  advance t ~now;
  t.state

let allow t ~now =
  advance t ~now;
  match t.state with
  | Closed -> true
  | Open ->
    t.rejections <- t.rejections + 1;
    Obs.Counter.incr m_rejections;
    false
  | Half_open ->
    (* Seeded probe admission: let a fraction of traffic test the
       backend rather than a thundering herd. *)
    if Mgq_util.Rng.chance t.rng t.config.probe_p then true
    else begin
      t.rejections <- t.rejections + 1;
      Obs.Counter.incr m_rejections;
      false
    end

let trip t ~now =
  t.state <- Open;
  t.opened_at <- now;
  t.consecutive_failures <- 0;
  t.probe_streak <- 0;
  t.opens <- t.opens + 1;
  Obs.Counter.incr (m_transition Open);
  t.on_open ()

let record_success t ~now =
  advance t ~now;
  match t.state with
  | Closed -> t.consecutive_failures <- 0
  | Open -> () (* stale report from before the trip; ignore *)
  | Half_open ->
    t.probe_streak <- t.probe_streak + 1;
    if t.probe_streak >= t.config.probe_successes then begin
      t.state <- Closed;
      t.consecutive_failures <- 0;
      Obs.Counter.incr (m_transition Closed);
      t.on_close ()
    end

let record_failure t ~now =
  advance t ~now;
  match t.state with
  | Closed ->
    t.consecutive_failures <- t.consecutive_failures + 1;
    if t.consecutive_failures >= t.config.failure_threshold then trip t ~now
  | Open -> ()
  | Half_open ->
    (* A failed probe re-opens immediately; counted separately so a
       chaos run can tell "backend still sick" from ordinary trips. *)
    Obs.Counter.incr m_probe_failures;
    trip t ~now
