(** Whole-graph analytics: PageRank and weakly connected components.

    The paper excludes these from its workload ("better suited for
    distributed graph processing platforms"); they are provided as an
    extension, one implementation per engine idiom plus a reference
    oracle, and a bench (E2) quantifying how much heavier they are
    than every navigational query. *)

val pagerank_neo : Mgq_neo.Db.t -> etype:string -> (int * float) list
(** Power iteration over all nodes, following one relationship type
    (damping 0.85, 20 iterations); dangling mass redistributed
    uniformly so scores sum to ~1.
    Returns (node id, score) best-first, ties by id. *)

val components_neo : Mgq_neo.Db.t -> etype:string -> int list list
(** Weakly connected components (undirected reachability over one
    type), each sorted ascending; components largest-first. Isolated
    nodes form singleton components. *)

val pagerank_sparks :
  Mgq_sparks.Sdb.t -> node_types:int list -> etype:int -> (int * float) list
(** Same semantics on the bitmap engine, restricted to the given node
    types; mass flows along [explode]d edges so parallel edges carry
    mass independently, matching the record-store behaviour. *)

val components_sparks :
  Mgq_sparks.Sdb.t -> node_types:int list -> etype:int -> int list list
(** Frontier-at-a-time BFS with Objects set algebra. *)

val pagerank_reference : Reference.t -> float array
(** Oracle over the raw follows arrays: index = uid. *)

val components_reference : Reference.t -> int list list
