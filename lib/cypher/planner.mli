(** Cost-based query planner.

    Shares the clause walker with {!Plan} but replaces MATCH path
    planning with enumeration: for each path it tries both
    orientations and every admissible start point (bound variable,
    each index seek the schema supports, label scan, all-nodes scan),
    costs the resulting operator prefix with {!Estimate.total_cost}
    and keeps the cheapest. {!Rewrite} normalisation runs first, and
    label checks provably implied by the observed endpoint schema are
    pruned after expansions — together these make the paper's three
    Section-4 recommendation phrasings converge to one physical
    plan. *)

val plan : Mgq_neo.Db.t -> Ast.query -> Plan.t
(** @raise Plan.Plan_error on unsupported or inconsistent queries. *)
