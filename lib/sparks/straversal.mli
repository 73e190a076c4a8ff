(** Sparksee's [Traversal] and [Context] classes.

    The paper notes that queries "can also be translated to a series
    of traversals using the Traversal or Context classes", and that
    raw [neighbors]/[explode] calls were "slightly more efficient ...
    perhaps due to the overhead involved with the traversals". This
    module provides that higher-level surface: a BFS/DFS traversal
    over selected edge types with depth bounds, and a [Context] that
    expands a whole frontier set one step at a time. The per-step
    bookkeeping overhead is real here too, which reproduces the
    paper's comparison. *)

type order = Bfs | Dfs

type t

val create : Sdb.t -> start:int -> t
val add_edge_type : t -> int -> Mgq_core.Types.direction -> t
val set_order : t -> order -> t
val set_max_depth : t -> int -> t

val run : t -> (int * int) list
(** Visited (node oid, depth) pairs, start excluded, each node once
    (first visit), in traversal order.
    @raise Invalid_argument when no edge type was added. *)

module Context : sig
  type ctx

  val start : Sdb.t -> Objects.t -> ctx
  (** Begin from a frontier set. *)

  val expand : ctx -> etype:int -> Mgq_core.Types.direction -> ctx
  (** One step: the new frontier is the set of unvisited neighbors of
      the current frontier. *)

  val frontier : ctx -> Objects.t
  val visited : ctx -> Objects.t
  (** Everything reached so far, including the start set. *)

  val depth : ctx -> int
end
