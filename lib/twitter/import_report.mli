(** Shared instrumentation for the two batch importers: the per-batch
    time series behind Figures 2 and 3, plus phase totals. *)

type point = {
  cumulative : int;  (** items loaded so far in this series *)
  batch_sim_ms : float;  (** deterministic simulated cost of the batch *)
  batch_wall_ms : float;
}

type series = { label : string; points : point list }

type t = {
  node_series : series list;  (** one per node type, in import order *)
  edge_series : series list;  (** one per edge type, in import order *)
  intermediate_sim_ms : float;  (** e.g. the dense-node computation *)
  index_sim_ms : float;  (** index build after import *)
  total_sim_ms : float;
  total_wall_ms : float;
  size_words : int;  (** resulting database footprint *)
}

val points_rows : series -> string list list
(** (cumulative items, per-batch sim ms) rows for printing. *)
