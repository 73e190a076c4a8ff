(* Shared instrumentation for the two batch importers: the per-batch
   series behind Figures 2 and 3, plus phase totals. *)

type point = {
  cumulative : int; (* items loaded so far in this series *)
  batch_sim_ms : float; (* deterministic simulated cost of the batch *)
  batch_wall_ms : float;
}

type series = { label : string; points : point list }

type t = {
  node_series : series list; (* one per node type, in import order *)
  edge_series : series list; (* one per edge type, in import order *)
  intermediate_sim_ms : float; (* e.g. Neo's dense-node computation *)
  index_sim_ms : float; (* index build after import *)
  total_sim_ms : float;
  total_wall_ms : float;
  size_words : int; (* resulting database footprint *)
}

(* Render a time series as a compact sparkline-ish text row list:
   (cumulative, per-batch ms). *)
let points_rows (s : series) =
  List.map
    (fun p ->
      [ string_of_int p.cumulative; Printf.sprintf "%.2f" p.batch_sim_ms ])
    s.points
