(** Unified observability: a metrics registry and request tracing.

    The paper's entire method is introspection — PROFILE db-hit
    counters and the plan cache — so the repo needs one place where
    every layer (storage, engines, query layer, cluster, overload)
    reports what it did. This module is dependency-free, snapshots
    are deterministic (sorted), and the trace clock is injectable so
    tests can run on a tick counter.

    {b Domain safety}: the registry is shared by every domain in the
    process, and any domain may report into it. A counter is one
    atomic, so concurrent [Counter.incr] from many domains loses no
    increments and [value] is exact; derived counters are read
    through their owner's function at snapshot time; gauges and
    histograms take a per-metric mutex; registration and
    snapshot/reset lock the registry table. A snapshot taken while
    writers are active is weakly consistent (each metric is read
    atomically; the set of metrics is not frozen at one instant).

    {b Metric naming scheme} (see DESIGN.md §11):
    [<layer>.<subject>] in lowercase dotted form, with dimensions as
    labels rather than name suffixes — e.g. [cypher.plan_cache]
    labelled [result=hit|miss], [admission.shed] labelled
    [class=cheap|moderate|expensive]. *)

type labels = (string * string) list
(** Label sets are compared order-insensitively: [[("a","1");("b","2")]]
    and [[("b","2");("a","1")]] address the same metric. *)

module Counter : sig
  type t

  val incr : ?by:int -> t -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> int -> unit
  (** Count [v] into its bucket and add it to the running sum. *)

  val count : t -> int
  val sum : t -> int

  val buckets : t -> (string * int) list
  (** Bucket label/count pairs, underflow bucket ("<b0") first, then
      right-open ranges ("b0-b1"), then the overflow bucket ("bn+").
      Counts always sum to {!count}. *)
end

(** {1 Registry} *)

module Registry : sig
  type t

  val create : unit -> t

  val counter : t -> ?labels:labels -> string -> Counter.t
  (** Register-or-fetch: the same (name, labels) always returns the
      same handle, so hot paths can resolve once at module init.
      @raise Invalid_argument when [name] exists with another kind. *)

  val derived_counter : t -> string -> (unit -> int) -> unit
  (** Register a counter whose value is not bumped but read: [read]
      returns a monotone running total kept by its owner, called at
      every {!snapshot} (from the snapshotting domain). The metric
      samples as a [Counter_value] of [read ()] minus the reading at
      the last {!reset}. The hot path pays nothing per event — the
      store.* counters are these, summed over the live storage cost
      models. The first registration of a name wins; it cannot be
      fetched with {!counter}.
      @raise Invalid_argument when [name] exists with another kind. *)

  val gauge : t -> string -> Gauge.t

  val histogram : t -> ?buckets:int list -> string -> Histogram.t
  (** [buckets] are the range bounds (sorted and deduplicated;
      default powers of four up to 65536). Bounds are fixed at first
      registration; later calls ignore the argument. *)

  type value =
    | Counter_value of int
    | Gauge_value of float
    | Histogram_value of { count : int; sum : int; buckets : (string * int) list }

  type sample = { name : string; labels : labels; value : value }

  val snapshot : t -> sample list
  (** Deterministic: sorted by name, then canonical labels. *)

  val reset : t -> unit
  (** Zero every registered metric, keeping registrations (and any
      handles already held) valid. A derived counter is zeroed by
      taking its current reading as the new baseline. *)
end

(** {1 The process-wide default registry}

    Library instrumentation reports here, like a Prometheus process
    registry; tests call {!reset} before the workload they assert on. *)

val counter : ?labels:labels -> string -> Counter.t
val derived_counter : string -> (unit -> int) -> unit
val gauge : string -> Gauge.t
val histogram : ?buckets:int list -> string -> Histogram.t
val snapshot : unit -> Registry.sample list
val reset : unit -> unit

val find_counter : ?labels:labels -> Registry.sample list -> string -> int option
(** Lookup helper for tests and oracles. *)

val rows : Registry.sample list -> (string * string * string) list
(** (name, labels, value) rows — histograms expand to one row per
    bucket plus [_count] / [_sum] rows — ready for a text table or
    CSV export. *)

val render : Registry.sample list -> string
(** One ["name{labels} value"] line per row of {!rows}. *)

(** {1 Request tracing}

    A process-wide span tree: [with_span] nests, attributes can be
    attached to the innermost open span while it runs, and completed
    spans render as an indented tree or one-line-per-span JSON. When
    tracing is disabled (the default), [with_span] is a direct call
    with no recording. *)

module Trace : sig
  type span = {
    id : int;  (** creation order, dense from 0 *)
    parent : int option;
    name : string;
    depth : int;
    start_ns : int64;
    stop_ns : int64;
    attrs : labels;
  }

  val enable : ?clock:(unit -> int64) -> unit -> unit
  (** Start recording. [clock] defaults to a deterministic tick
      counter (one tick per timestamp read); pass a monotonic
      nanosecond clock (e.g. [Stats.Timing.now_ns]) for wall-time
      spans. Enabling clears previously recorded spans. *)

  val disable : unit -> unit
  val enabled : unit -> bool
  val clear : unit -> unit

  val with_span : ?attrs:labels -> string -> (unit -> 'a) -> 'a
  (** Run [f] inside a span. The span closes when [f] returns or
      raises (the exception is recorded as an [error] attribute and
      re-raised). *)

  val note : string -> string -> unit
  (** Attach an attribute to the innermost open span (no-op when
      tracing is disabled or no span is open). *)

  val note_int : string -> int -> unit

  val spans : unit -> span list
  (** Completed spans in creation (= tree pre-)order. *)

  val find : string -> span list
  (** Completed spans with the given name, in creation order. *)

  val attr : span -> string -> string option
  val attr_int : span -> string -> int option

  val ancestors : span list -> span -> span list
  (** Chain of enclosing spans, innermost first. *)

  val render_tree : unit -> string
end
