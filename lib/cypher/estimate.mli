(** Cardinality and cost estimation over physical plans.

    Estimates are derived from the {!Mgq_catalog.Catalog} statistics
    the storage engine maintains: label counts feed scan
    cardinalities, the MCV sketch and distinct counts feed equality
    selectivities, degree histograms feed expansion fan-out, and the
    observed endpoint schema resolves which label an expansion
    reaches. Costs are in {e expected db hits} — the same unit PROFILE
    reports — so EXPLAIN's estimates and EXPLAIN ANALYZE's actuals are
    directly comparable.

    The estimator walks an operator pipeline in execution order
    threading an inferred context (rows so far, a variable-to-label
    map, and alias provenance through projections), which is also what
    lets the planner prune label checks and size aggregations. *)

type ann = {
  est_rows : float;  (** rows the operator emits *)
  est_cost : float;  (** db hits the operator itself incurs *)
}

val annotate : Mgq_neo.Db.t -> Plan.op list -> ann list
(** One annotation per operator, positionally aligned with the
    pipeline. *)

val total_cost : Mgq_neo.Db.t -> Plan.op list -> float
(** Sum of per-operator costs — the quantity the cost-based planner
    minimises across candidate plans. *)
