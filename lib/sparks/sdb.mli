(** The bitmap-based graph engine (Sparksee analog).

    Storage follows Sparksee's published design (Martínez-Bazán et
    al., IDEAS 2012): one object-id space for nodes and edges; per
    type, a compressed bitmap of its objects; per attribute, an
    oid-to-value map plus (for indexed attributes) an inverted
    value-to-bitmap index; per edge type, link maps from node oid to
    the bitmap of incident edge oids. Queries are written imperatively
    against the navigation operations — [find_type],
    [find_attribute], [find_object], [neighbors], [explode] — exactly
    the surface the paper's Sparksee snippets use.

    Cost accounting: attribute and link-map probes charge db hits
    against an internal {!Mgq_storage.Cost_model}; bitmap materialisation
    charges time proportional to the result cardinality. The paper's
    observation that per-node [neighbors] calls in a fan-out loop are
    expensive emerges from exactly this accounting.

    [neighbors] returns {e unique} neighbor ids (parallel edges
    collapse); when multiplicity matters the caller must [explode]
    and walk edges, as real Sparksee clients do. *)

type t

type attr_kind = Basic | Indexed | Unique

type value_type = Type_int | Type_float | Type_bool | Type_string

val create : ?config:Mgq_storage.Cost_model.config -> ?materialize_neighbors:bool -> unit -> t
(** [materialize_neighbors] (default false) maintains direct
    node-to-neighbor bitmaps per edge type, trading import cost for
    cheap [neighbors] — the option whose import-time blow-up made the
    authors abort an 8-hour load. *)

val cost : t -> Mgq_storage.Cost_model.t
val materializes_neighbors : t -> bool

(** {1 Persistence} *)

val save : t -> string -> unit
(** Serialise the database to a file: magic, payload length and
    CRC-32, then a codec-encoded image — schema, per-type object
    bitmaps in their compressed binary form ({!Mgq_bitmap.Bitmap.encode}),
    attribute values, and the node/edge tables. Derived structures
    (inverted indexes, link maps, materialised neighbor maps) are not
    shipped. *)

val load : string -> t
(** Inverse of {!save}; validates the checksum, then rebuilds every
    derived structure from the primary tables.
    @raise Failure on a missing/foreign/corrupt file. *)

(** {1 Schema} *)

val new_node_type : t -> string -> int
val new_edge_type : t -> string -> int

val find_type : t -> string -> int
(** @raise Mgq_core.Types.Schema_error on unknown names. *)

val type_name : t -> int -> string

val new_attribute : t -> int -> string -> value_type -> attr_kind -> int
(** [new_attribute t type_id name vtype kind]: declare an attribute of
    a node or edge type. [Indexed]/[Unique] attributes maintain the
    inverted index used by [find_object]/[select]. *)

val find_attribute : t -> int -> string -> int
(** @raise Mgq_core.Types.Schema_error when not declared. *)

val attribute_names : t -> int -> string list

(** {1 Data} *)

val new_node : t -> int -> int
(** Fresh node oid of the given node type. *)

val new_edge : t -> int -> tail:int -> head:int -> int
(** Directed edge oid from [tail] to [head].
    @raise Mgq_core.Types.Node_not_found on bad endpoints. *)

val drop_edge : t -> int -> unit
(** Remove an edge: its type bitmap, link-map entries, attribute
    values/index entries and (when neighbor materialisation is on) its
    contribution to the neighbor index — a parallel edge between the
    same endpoints keeps the neighbor bit set.
    @raise Mgq_core.Types.Edge_not_found on a non-edge oid. *)

val drop_node : t -> int -> unit
(** Remove an isolated node.
    @raise Failure when the node still has incident edges of any type.
    @raise Mgq_core.Types.Node_not_found on a non-node oid. *)

val set_attribute : t -> int -> int -> Mgq_core.Value.t -> unit
(** [set_attribute t oid attr v]. [Null] removes. Enforces the
    declared value type ([Schema_error] otherwise) and uniqueness for
    [Unique] attributes ([Failure]). *)

val get_attribute : t -> int -> int -> Mgq_core.Value.t
(** [Null] when unset. *)

(** {1 Lookup} *)

val find_object : t -> int -> Mgq_core.Value.t -> int option
(** First object (lowest oid) whose indexed attribute equals the
    value — Sparksee's [findObject]. @raise Mgq_core.Types.Schema_error
    when the attribute is not indexed. *)

val select : t -> int -> Mgq_core.Value.t -> Objects.t
(** All objects whose attribute equals the value: indexed probe when
    possible, full scan of the type's objects otherwise. *)

val select_range :
  t -> int -> ?min_v:Mgq_core.Value.t -> ?max_v:Mgq_core.Value.t -> unit -> Objects.t
(** Inclusive range scan over an attribute (always a scan; the
    inverted index is hash-based). *)

val objects_of_type : t -> int -> Objects.t

val count_objects : t -> int -> int
(** Objects of a type, O(1). *)

(** {1 Navigation} *)

val neighbors : t -> int -> int -> Mgq_core.Types.direction -> Objects.t
(** [neighbors t node etype dir]: unique adjacent node oids. *)

val explode : t -> int -> int -> Mgq_core.Types.direction -> Objects.t
(** Incident edge oids. *)

val degree : t -> int -> int -> Mgq_core.Types.direction -> int

val tail_of : t -> int -> int
val head_of : t -> int -> int
(** @raise Mgq_core.Types.Edge_not_found on a non-edge oid. *)

val edge_peer : t -> int -> int -> int
(** [edge_peer t edge node]: the other endpoint.
    @raise Invalid_argument when [node] is not an endpoint. *)

val node_count : t -> int
val edge_count : t -> int

val memory_words : t -> int
(** Approximate footprint of the bitmap structures ("database
    size"). *)
