(** Traversal framework (the Neo4j core-API analog).

    The paper contrasts Cypher with "the core API [which] offers more
    flexibility through a traversal framework, which allows the user
    to express exactly how to retrieve the query results". This module
    is that imperative surface: a traversal description combining
    relationship expanders, depth bounds, uniqueness policy, branch
    order and a user evaluator, executed lazily from a start node. *)

type path = {
  end_node : Mgq_core.Types.node_id;
  length : int;
  nodes_rev : Mgq_core.Types.node_id list;
      (** End node first, start node last; [nodes] reverses it. *)
}

val nodes : path -> Mgq_core.Types.node_id list
(** Start-to-end order. *)

type evaluation = {
  emit : bool;  (** include this path in the result *)
  expand : bool;  (** keep traversing below this path *)
}

val include_and_continue : evaluation
val include_and_prune : evaluation

type order = Breadth_first | Depth_first

type uniqueness =
  | Node_global  (** visit every node at most once (default) *)
  | Node_path  (** forbid cycles within a path only *)
  | None_allowed  (** revisit freely (bounded traversals only) *)

type t

val description : unit -> t
(** Defaults: no expanders (add at least one), depths [1, max_int],
    breadth-first, [Node_global] uniqueness, evaluator that includes
    and continues everywhere. *)

val expand : t -> ?etype:string -> Mgq_core.Types.direction -> t
(** Add a relationship expander; multiple expanders union. *)

val min_depth : t -> int -> t
val max_depth : t -> int -> t
val order : t -> order -> t
val uniqueness : t -> uniqueness -> t

val evaluator : t -> (Db.t -> path -> evaluation) -> t
(** Replace the evaluator. It is consulted at every reached path of
    depth >= 1; emitted paths are additionally filtered by the depth
    bounds. *)

val traverse : Db.t -> t -> Mgq_core.Types.node_id -> path Seq.t
(** Lazy stream of accepted paths. Under a budget attached to the
    database's cost model, {!Mgq_util.Budget.Exhausted} raises from
    inside the consumer's pull — paths already pulled stand as the
    partial result.
    @raise Invalid_argument when no expander was added. *)

val traverse_nodes : Db.t -> t -> Mgq_core.Types.node_id -> Mgq_core.Types.node_id Seq.t
(** End nodes of {!traverse}. *)
