(* Admission control at the front door: a token bucket bounds the
   absolute request rate, and an AIMD concurrency limit adapts to the
   backend's observed latency gradient (current latency vs. a moving
   minimum, the congestion signal Netflix's adaptive limiters use).
   Shedding is priority-aware: expensive workload classes see a
   smaller slice of the concurrency limit, so influence/path queries
   shed first and cheap selects shed last. *)

module Workload = Mgq_queries.Workload
module Obs = Mgq_obs.Obs

let m_admitted = Obs.counter "admission.admitted"
let m_limit = Obs.gauge "admission.limit"
let m_increases = Obs.counter "admission.limit_increases"
let m_decreases = Obs.counter "admission.limit_decreases"

let m_shed cls =
  Obs.counter "admission.shed" ~labels:[ ("class", Workload.cost_class_to_string cls) ]

type decision = Admitted | Rejected of { retry_after_ns : int }

type config = {
  rate_per_s : float;
  burst : float;
  initial_limit : float;
  min_limit : float;
  max_limit : float;
  tolerance : float;
  decrease : float;
  min_window : int;
}

let default_config =
  {
    rate_per_s = 0.;
    burst = 100.;
    initial_limit = 16.;
    min_limit = 2.;
    max_limit = 256.;
    tolerance = 2.0;
    decrease = 0.92;
    min_window = 50;
  }

(* Two-epoch moving minimum: the floor is the min over the current and
   previous windows, so it tracks genuine service-time shifts instead
   of anchoring forever on one lucky sample. *)
type moving_min = {
  mutable cur : int;
  mutable prev : int;
  mutable samples : int;
  window : int;
}

let mm_create window = { cur = max_int; prev = max_int; samples = 0; window }

let mm_observe mm v =
  if v < mm.cur then mm.cur <- v;
  mm.samples <- mm.samples + 1;
  if mm.samples >= mm.window then begin
    mm.prev <- mm.cur;
    mm.cur <- max_int;
    mm.samples <- 0
  end

let mm_floor mm =
  let f = min mm.cur mm.prev in
  if f = max_int then None else Some f

let class_index = function
  | Workload.Cheap -> 0
  | Workload.Moderate -> 1
  | Workload.Expensive -> 2

(* Share of the concurrency limit each class may fill: under pressure
   the limit shrinks and the expensive classes hit their (smaller)
   ceiling first. *)
let class_share = function
  | Workload.Cheap -> 1.0
  | Workload.Moderate -> 0.8
  | Workload.Expensive -> 0.5

type t = {
  config : config;
  mutable tokens : float;
  mutable refilled_at_ns : int;
  mutable limit : float;
  mutable inflight : int;
  floors : moving_min array;  (* per cost class *)
  mutable admitted : int;
  shed : int array;  (* per cost class *)
  mutable decreases : int;
}

let create ?(config = default_config) () =
  if config.initial_limit < config.min_limit || config.initial_limit > config.max_limit
  then invalid_arg "Admission.create: initial_limit outside [min_limit, max_limit]";
  {
    config;
    tokens = config.burst;
    refilled_at_ns = 0;
    limit = config.initial_limit;
    inflight = 0;
    floors = Array.init 3 (fun _ -> mm_create (max 1 config.min_window));
    admitted = 0;
    shed = Array.make 3 0;
    decreases = 0;
  }

let limit t = t.limit
let inflight t = t.inflight
let admitted t = t.admitted
let shed t cls = t.shed.(class_index cls)
let total_shed t = Array.fold_left ( + ) 0 t.shed
let decreases t = t.decreases

let latency_floor_ns t cls = mm_floor t.floors.(class_index cls)

let refill t ~now_ns =
  if t.config.rate_per_s > 0. then begin
    let dt = max 0 (now_ns - t.refilled_at_ns) in
    t.tokens <-
      Float.min t.config.burst
        (t.tokens +. (float_of_int dt /. 1e9 *. t.config.rate_per_s))
  end;
  t.refilled_at_ns <- max t.refilled_at_ns now_ns

(* How long until retrying is worth it: the token gap at the refill
   rate, or — when concurrency-limited — one floor service time (the
   soonest an in-flight slot could free up). *)
let retry_after_token t =
  let needed = 1. -. t.tokens in
  int_of_float (ceil (needed /. t.config.rate_per_s *. 1e9))

let retry_after_slot t cls =
  match latency_floor_ns t cls with Some f -> max 1 f | None -> 1_000_000

(* Rounding for the HTTP Retry-After header: ceil to whole seconds,
   and never 0 when the hint is positive — a 0 tells well-behaved
   clients to retry immediately, re-creating the burst that got them
   rejected. Saturates instead of overflowing on absurd hints. *)
let retry_after_seconds ns =
  if ns <= 0 then 0
  else if ns >= max_int - 999_999_999 then max_int / 1_000_000_000
  else (ns + 999_999_999) / 1_000_000_000

let reject t cls ~retry_after_ns =
  t.shed.(class_index cls) <- t.shed.(class_index cls) + 1;
  Obs.Counter.incr (m_shed cls);
  Rejected { retry_after_ns }

let offer t ~now_ns ~cls =
  refill t ~now_ns;
  if t.config.rate_per_s > 0. && t.tokens < 1. then
    reject t cls ~retry_after_ns:(retry_after_token t)
  else begin
    let effective = Float.max t.config.min_limit (t.limit *. class_share cls) in
    if float_of_int t.inflight >= effective then
      reject t cls ~retry_after_ns:(retry_after_slot t cls)
    else begin
      if t.config.rate_per_s > 0. then t.tokens <- t.tokens -. 1.;
      t.inflight <- t.inflight + 1;
      t.admitted <- t.admitted + 1;
      Obs.Counter.incr m_admitted;
      Admitted
    end
  end

(* AIMD on the latency gradient: near the floor -> additive increase
   (+1/limit per completion, i.e. +1 per limit's worth of traffic);
   inflated latency -> multiplicative decrease. *)
let complete t ~now_ns ~cls ~latency_ns =
  ignore now_ns;
  if t.inflight <= 0 then invalid_arg "Admission.complete: nothing in flight";
  t.inflight <- t.inflight - 1;
  let mm = t.floors.(class_index cls) in
  let floor_before = mm_floor mm in
  mm_observe mm (max 1 latency_ns);
  match floor_before with
  | None -> () (* no gradient yet; keep the initial limit *)
  | Some floor_ns ->
    let ratio = float_of_int (max 1 latency_ns) /. float_of_int (max 1 floor_ns) in
    if ratio <= t.config.tolerance then begin
      t.limit <- Float.min t.config.max_limit (t.limit +. (1. /. t.limit));
      Obs.Counter.incr m_increases;
      Obs.Gauge.set m_limit t.limit
    end
    else begin
      t.limit <- Float.max t.config.min_limit (t.limit *. t.config.decrease);
      t.decreases <- t.decreases + 1;
      Obs.Counter.incr m_decreases;
      Obs.Gauge.set m_limit t.limit
    end

let abandon t =
  if t.inflight <= 0 then invalid_arg "Admission.abandon: nothing in flight";
  t.inflight <- t.inflight - 1
