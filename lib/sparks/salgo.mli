(** Native graph algorithms ([SinglePairShortestPathBFS]).

    The paper runs Q6.1 on Sparksee through this class, with "maximum
    length of the shortest path ... set to 3 hops". Unlike the Neo
    engine's bidirectional search, the native Sparksee algorithm is a
    frontier-at-a-time one-sided BFS over neighbor sets — set algebra
    instead of record chasing, matching each system's idiom. *)

module Single_pair_shortest_path_bfs : sig
  type t

  val create :
    Sdb.t ->
    src:int ->
    dst:int ->
    etypes:(int * Mgq_core.Types.direction) list ->
    max_hops:int ->
    t

  val exists : t -> bool
  val cost : t -> int option
  (** Hop count of the shortest path, when one exists. *)

  val path : t -> int list option
  (** Node oids from src to dst inclusive. *)
end
