(** Query planner: AST -> physical operator pipeline.

    The planner mirrors what the paper observes of Cypher's runtime:
    start points are chosen by selectivity (index seek when a label +
    property-equality pair is backed by a schema index, then label
    scan, then all-nodes scan); patterns become chains of Expand
    operators; different phrasings of the same query (Section 4's
    three recommendation variants) genuinely produce different plans
    with different db-hit counts. *)

type op =
  | Node_index_seek of { var : string; label : string; key : string; value : Ast.expr }
  | Node_label_scan of { var : string; label : string }
  | All_nodes_scan of { var : string }
  | Expand of {
      src : string;
      rel_var : string option;
      types : string list;
      dir : Mgq_core.Types.direction;
      dst : string;
      dst_new : bool;  (** false = expand-into an already-bound variable *)
      uniq : string;
          (** hidden accumulator binding enforcing Cypher's per-MATCH
              relationship uniqueness *)
    }
  | Var_expand of {
      src : string;
      types : string list;
      dir : Mgq_core.Types.direction;
      rmin : int;
      rmax : int;
      dst : string;
      dst_new : bool;
      uniq : string;
    }
  | Shortest_path of {
      pvar : string option;
      src : string;
      dst : string;
      types : string list;
      dir : Mgq_core.Types.direction;
      rmax : int;
    }
  | Node_check of { var : string; pat : Ast.node_pat }
      (** residual label / property-map constraints on a bound node *)
  | Filter of Ast.expr
  | Project of (Ast.expr * string) list
  | Aggregate of {
      groups : (Ast.expr * string) list;
      aggs : (Ast.agg_kind * Ast.expr option * string) list;
    }
  | Distinct
  | Sort of Ast.order_item list
  | Skip_op of Ast.expr
  | Limit_op of Ast.expr
  | Create_op of Ast.pattern_path list
      (** write: instantiate the pattern once per input row *)
  | Set_op of Ast.set_item list
  | Delete_op of { detach : bool; vars : string list }
  | Unwind_op of Ast.expr * string
  | Merge_op of Ast.node_pat
      (** get-or-create: bind every matching node, creating one when
          none match *)
  | Optional_op of { ops : op list; new_vars : string list }
      (** OPTIONAL MATCH: run the sub-pipeline per row; when it yields
          nothing, pass the row through with [new_vars] bound to null *)

type t = { ops : op list; columns : string list }

val has_writes : t -> bool
(** True when the plan mutates the store — execution must then be
    wrapped in a transaction. *)

exception Plan_error of string

val plan : Mgq_neo.Db.t -> Ast.query -> t
(** Compile a parsed query against the database's current schema
    (available indexes, label statistics), orienting each MATCH path
    with the built-in greedy heuristic.
    @raise Plan_error on unsupported or inconsistent queries. *)

(** {1 Planner-state surface}

    The clause walker (projections, writes, OPTIONAL framing, variable
    scoping) is shared between the heuristic and the cost-based
    planner; only MATCH path planning is pluggable. An external
    planner receives the mutable [state] and may emit operators, try a
    candidate and roll it back via {!snapshot}/{!restore}. *)

type state

type snapshot

val snapshot : state -> snapshot
val restore : state -> snapshot -> unit

val db_of : state -> Mgq_neo.Db.t

val ops_so_far : state -> op list
(** Operators emitted so far, in execution order — what a cost model
    estimates over. *)

val emit : state -> op -> unit
val bind_var : state -> string -> unit
val is_var_bound : state -> string -> bool

val var_of : state -> Ast.node_pat -> string
(** The pattern's variable, or a fresh anonymous one. *)

val is_bound : state -> Ast.node_pat -> bool

val emit_leaf : state -> Ast.node_pat -> string
(** Emit the start-point operator(s) binding the pattern's variable
    (index seek when available, else label scan, else all-nodes scan)
    plus residual checks; returns the variable. *)

val emit_node_residual : state -> string -> Ast.node_pat -> unit
(** Emit a [Node_check] for the label/property constraints the
    reaching operator did not enforce (no-op when there are none). *)

val plan_shortest : state -> Ast.pattern_path -> unit

val reverse_path : Ast.pattern_path -> Ast.pattern_path

val path_end : Ast.pattern_path -> Ast.node_pat

val plan_with :
  ?plan_paths:(state -> uniq:string -> Ast.pattern_path list -> unit) ->
  Mgq_neo.Db.t ->
  Ast.query ->
  t
(** {!plan} with MATCH path planning delegated to [plan_paths] (the
    greedy heuristic when omitted). *)

val op_name : op -> string
val op_detail : op -> string
val to_string : t -> string
(** Multi-line plan rendering, one operator per line, for EXPLAIN-like
    output. *)

val to_canonical_string : t -> string
(** {!to_string} after α-renaming every variable and alias to
    [v0, v1, …] in first-appearance order: plans that differ only in
    the names the query text chose render identically — the witness
    that different phrasings converged to the same physical plan. *)
