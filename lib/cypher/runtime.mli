(** Execution-time values, slot rows and expression compilation.

    A plan is compiled once, when it enters the plan cache: every
    variable becomes an integer slot and every expression a closure
    over (environment, row). Reads are resolved against the set of
    variables bound at that point of the plan, so a read of an unbound
    variable compiles to the error it raises. *)

module Db = Mgq_neo.Db
module Sset : Set.S with type elt = string

type item =
  | Inode of Mgq_core.Types.node_id
  | Iedge of Mgq_core.Types.edge_id
  | Ipath of Mgq_core.Types.node_id list
  | Ival of Mgq_core.Value.t
  | Ilist of item list

type params = (string * Mgq_core.Value.t) list

exception Eval_error of string

val item_equal : item -> item -> bool
(** Node/edge identity, value equality with coercion, lists
    element-wise. *)

val item_compare : item -> item -> int
(** Total order for ORDER BY and DISTINCT: values first by
    {!Mgq_core.Value.compare_values} where comparable, then a stable
    arbitrary order across kinds; nulls sort last. *)

val item_to_value : item -> Mgq_core.Value.t
(** Nodes/edges render as their id; paths as their length; lists are
    rejected with [Eval_error]. Used for display and TSV output. *)

(** {1 Rows} *)

type row = item array
(** One slot per plan variable. Each MATCH clause's hidden
    relationship-uniqueness accumulator is a slot too: an [Ilist] of
    the [Iedge]s the clause consumed so far, null before its first
    expansion. *)

type layout
(** Slot and parameter numbering of one compiled plan. *)

val layout : unit -> layout

val slot : layout -> string -> int
(** The variable's slot, allocated on first use. *)

val param_names : layout -> string array
(** The parameters the compiled expressions read, by index. *)

val empty_row : layout -> row

val copy_row : row -> row

val v_null : item

type env = { db : Db.t; params : Mgq_core.Value.t option array }
(** Per-run state: parameters resolved once, by index. *)

val env : Db.t -> string array -> params -> env
(** [env db (param_names layout) params]; a parameter missing from
    [params] raises [Eval_error] only when an expression reads it. *)

(** {1 Compilation} *)

val compile_expr : layout -> Sset.t -> Ast.expr -> env -> row -> item
(** Compile a scalar (non-aggregate) expression against the bound
    variables. Aggregates compile to a closure raising [Eval_error] —
    the planner must have split them out. Pattern predicates are
    existence searches from a bound endpoint. *)

val compile_pred : layout -> Sset.t -> Ast.expr -> env -> row -> bool
(** {!compile_expr} followed by Cypher truthiness ([Bool true] only). *)

val compile_node_test :
  error:(string -> exn) ->
  layout ->
  Sset.t ->
  Ast.node_pat ->
  (env -> row -> Mgq_core.Types.node_id -> bool) option
(** The pattern's label and property-map constraints on a node, in
    that order; [None] when it has neither. A non-scalar property
    value raises [error]. *)
