module Db = Mgq_neo.Db
module Algo = Mgq_neo.Algo
module Value = Mgq_core.Value
module Cost_model = Mgq_storage.Cost_model
module Sim_disk = Mgq_storage.Sim_disk
module Obs = Mgq_obs.Obs
open Mgq_core.Types
open Runtime

let m_db_hits = Obs.counter "cypher.db_hits"
let m_rows = Obs.counter "cypher.rows"

type profile_entry = { name : string; detail : string; rows : int; db_hits : int }

type update_counts = {
  nodes_created : int;
  edges_created : int;
  properties_set : int;
  nodes_deleted : int;
  edges_deleted : int;
}

let no_updates =
  {
    nodes_created = 0;
    edges_created = 0;
    properties_set = 0;
    nodes_deleted = 0;
    edges_deleted = 0;
  }

type result = {
  columns : string list;
  rows : item list list;
  profile : profile_entry list option;
  updates : update_counts;
}

exception Exec_error of string

(* ---------------- slot resolution ---------------- *)

(* Compile-time state: the variables bound at this point of the plan. *)
type cstate = { layout : layout; mutable bound : Sset.t }

let bind cs var =
  cs.bound <- Sset.add var cs.bound;
  slot cs.layout var

let is_bound cs var = Sset.mem var cs.bound

let unbound var = Exec_error (Printf.sprintf "unbound variable %s" var)
let not_a_node var = Exec_error (Printf.sprintf "%s is not a node" var)

let item_of cs var =
  if is_bound cs var then
    let i = slot cs.layout var in
    fun (row : row) -> row.(i)
  else fun _ -> raise (unbound var)

let node_of cs var =
  let item = item_of cs var in
  fun row -> match item row with Inode n -> n | _ -> raise (not_a_node var)

(* Null bindings (from OPTIONAL MATCH) propagate: expanding from a
   null source yields no rows rather than an error. *)
let node_opt_of cs var =
  let item = item_of cs var in
  fun row ->
    match item row with
    | Inode n -> Some n
    | Ival Value.Null -> None
    | _ -> raise (not_a_node var)

let set (row : row) i item =
  let row = copy_row row in
  row.(i) <- item;
  row

let exec_error m = Exec_error m

let compile_test cs pat =
  match compile_node_test ~error:exec_error cs.layout cs.bound pat with
  | Some test -> test
  | None -> fun _ _ _ -> true

let compile_scalar cs ~error expr =
  let f = compile_expr cs.layout cs.bound expr in
  fun env row -> match f env row with Ival v -> v | _ -> raise (Exec_error error)

let compile_int cs expr what =
  let f = compile_expr cs.layout Sset.empty expr in
  let no_row = [||] in
  fun env ->
    match f env no_row with
    | Ival (Value.Int i) -> i
    | _ -> raise (Exec_error (Printf.sprintf "%s must evaluate to an integer" what))

(* ---------------- relationship expansion ---------------- *)

(* A type's chain is opened only after the previous type's chain is
   exhausted, so store accesses follow the order of [types]. *)
let edges_seq db node types dir =
  match types with
  | [] -> Db.edges_of db node dir
  | _ -> Seq.flat_map (fun t -> Db.edges_of db node ~etype:t dir) (List.to_seq types)

let edges db node types dir = List.of_seq (edges_seq db node types dir)

let step_target edge src dir =
  match dir with Out -> edge.dst | In -> edge.src | Both -> other_end edge src

(* The accumulator slot: an [Ilist] of [Iedge]s, null when the clause
   has not expanded yet. *)
let used_of (row : row) i = match row.(i) with Ilist items -> items | _ -> []

let rec mem_used (id : int) = function
  | [] -> false
  | Iedge e :: rest -> e = id || mem_used id rest
  | _ :: rest -> mem_used id rest

(* All paths of length in [rmin, rmax] with relationship uniqueness
   (Cypher's variable-length semantics); calls [emit] with the end
   node and the accumulator the path leaves, once per distinct path.
   [used0] holds the edges already consumed by the surrounding MATCH. *)
let var_length_paths db ~src_node ~types ~dir ~rmin ~rmax ~used0 emit =
  let rec dfs node depth used =
    if depth >= rmin && depth > 0 then emit node used;
    if depth < rmax then
      List.iter
        (fun e ->
          if not (mem_used e.id used) then
            dfs (step_target e node dir) (depth + 1) (Iedge e.id :: used))
        (edges db node types dir)
  in
  if rmin = 0 then emit src_node used0;
  dfs src_node 0 used0

(* Where an expansion's far end goes. *)
type target = New of int | Into of int | Into_unbound

let target_of cs ~dst ~dst_new =
  if dst_new then New (bind cs dst)
  else if is_bound cs dst then Into (slot cs.layout dst)
  else Into_unbound

(* ---------------- aggregation ---------------- *)

(* Group keys are equal when [item_compare] says so, which equates
   [Int 1] with [Float 1.]: numbers hash through their float value. *)
let rec item_hash = function
  | Ival (Value.Int i) -> Hashtbl.hash (float_of_int i)
  | Ival (Value.Float f) -> Hashtbl.hash f
  | Ival v -> Hashtbl.hash v
  | Inode n -> Hashtbl.hash (1, n)
  | Iedge e -> Hashtbl.hash (2, e)
  | Ipath p -> Hashtbl.hash (3, p)
  | Ilist items -> List.fold_left (fun h item -> (31 * h) + item_hash item) 4 items

let key_compare = List.compare item_compare

module Key_tbl = Hashtbl.Make (struct
  type t = item list

  let equal a b = key_compare a b = 0
  let hash key = List.fold_left (fun h item -> (31 * h) + item_hash item) 0 key
end)

type agg_state = {
  update : item option -> unit; (* None = count-star tick *)
  finish : unit -> item;
}

let make_agg_state kind =
  match kind with
  | Ast.Count_star ->
    let n = ref 0 in
    { update = (fun _ -> incr n); finish = (fun () -> Ival (Value.Int !n)) }
  | Ast.Count ->
    let n = ref 0 in
    {
      update =
        (fun v -> match v with Some (Ival Value.Null) | None -> () | Some _ -> incr n);
      finish = (fun () -> Ival (Value.Int !n));
    }
  | Ast.Count_distinct ->
    let seen = ref [] in
    {
      update =
        (fun v ->
          match v with
          | Some (Ival Value.Null) | None -> ()
          | Some item -> if not (List.exists (item_equal item) !seen) then seen := item :: !seen);
      finish = (fun () -> Ival (Value.Int (List.length !seen)));
    }
  | Ast.Collect ->
    let acc = ref [] in
    {
      update =
        (fun v ->
          match v with Some (Ival Value.Null) | None -> () | Some item -> acc := item :: !acc);
      finish = (fun () -> Ilist (List.rev !acc));
    }
  | Ast.Sum ->
    let acc = ref (Value.Int 0) in
    {
      update =
        (fun v ->
          match v with
          | Some (Ival (Value.Int i)) ->
            acc :=
              (match !acc with
              | Value.Int a -> Value.Int (a + i)
              | Value.Float a -> Value.Float (a +. float_of_int i)
              | _ -> assert false)
          | Some (Ival (Value.Float f)) ->
            acc :=
              (match !acc with
              | Value.Int a -> Value.Float (float_of_int a +. f)
              | Value.Float a -> Value.Float (a +. f)
              | _ -> assert false)
          | Some (Ival Value.Null) | None -> ()
          | Some _ -> raise (Exec_error "sum() over non-numeric values"));
      finish = (fun () -> Ival !acc);
    }
  | Ast.Min ->
    let best = ref None in
    {
      update =
        (fun v ->
          match v with
          | Some (Ival Value.Null) | None -> ()
          | Some item -> (
            match !best with
            | None -> best := Some item
            | Some b -> if item_compare item b < 0 then best := Some item));
      finish =
        (fun () -> match !best with Some b -> b | None -> Ival Value.Null);
    }
  | Ast.Max ->
    let best = ref None in
    {
      update =
        (fun v ->
          match v with
          | Some (Ival Value.Null) | None -> ()
          | Some item -> (
            match !best with
            | None -> best := Some item
            | Some b -> if item_compare item b > 0 then best := Some item));
      finish =
        (fun () -> match !best with Some b -> b | None -> Ival Value.Null);
    }

(* ---------------- write support ---------------- *)

type update_acc = {
  mutable u_nodes_created : int;
  mutable u_edges_created : int;
  mutable u_properties_set : int;
  mutable u_nodes_deleted : int;
  mutable u_edges_deleted : int;
}

let compile_props cs props =
  List.map
    (fun (key, expr) -> (key, compile_scalar cs ~error:"property values must be scalars" expr))
    props

let eval_props env row props =
  Mgq_core.Property.of_list (List.map (fun (key, f) -> (key, f env row)) props)

(* A CREATE pattern node: an already-bound node, or one to create. *)
type create_node =
  | Reuse of (row -> node_id)
  | Make of {
      label : string option;
      props : (string * (env -> row -> Value.t)) list;
      slot : int option;
    }

let compile_create_node cs (pat : Ast.node_pat) =
  match pat.Ast.nvar with
  | Some v when is_bound cs v -> Reuse (node_of cs v)
  | var ->
    let props = compile_props cs pat.Ast.nprops in
    Make { label = pat.Ast.nlabel; props; slot = Option.map (bind cs) var }

let compile_create_path cs (p : Ast.pattern_path) =
  let start = compile_create_node cs p.Ast.pstart in
  let steps =
    List.map
      (fun ((rel : Ast.rel_pat), node_pat) ->
        let target = compile_create_node cs node_pat in
        let etype = match rel.Ast.rtypes with [ t ] -> t | _ -> assert false in
        (target, etype, rel.Ast.rdir, Option.map (bind cs) rel.Ast.rvar))
      p.Ast.psteps
  in
  (start, steps)

(* Instantiate one CREATE pattern for one row, binding new nodes and
   relationships into the row's (private) slots. *)
let create_path env acc row (start, steps) =
  let resolve = function
    | Reuse node -> node row
    | Make { label; props; slot } ->
      let label =
        match label with Some l -> l | None -> raise (Exec_error "CREATE node needs a label")
      in
      let node = Db.create_node env.db ~label (eval_props env row props) in
      acc.u_nodes_created <- acc.u_nodes_created + 1;
      acc.u_properties_set <- acc.u_properties_set + List.length props;
      Option.iter (fun i -> row.(i) <- Inode node) slot;
      node
  in
  ignore
    (List.fold_left
       (fun current (target, etype, dir, rel_slot) ->
         let target = resolve target in
         let src, dst =
           match dir with
           | Out -> (current, target)
           | In -> (target, current)
           | Both -> assert false
         in
         let edge = Db.create_edge env.db ~etype ~src ~dst Mgq_core.Property.empty in
         acc.u_edges_created <- acc.u_edges_created + 1;
         Option.iter (fun i -> row.(i) <- Iedge edge) rel_slot;
         target)
       (resolve start) steps)

(* ---------------- operators ---------------- *)

(* An operator reads its input through a producer: [input k] calls [k]
   on each input row, in order, once. A materialised row list and the
   label scan feed it the same way. *)
type producer = (row -> unit) -> unit

(* The label scan alone streams: reading a scan-store entry is one db
   hit and no page, so running it inside its consumer moves no page
   access (DESIGN §3). Every other operator materialises its output. *)
type apply =
  | Eager of (env -> update_acc -> producer -> row list)
  | Lazy of (env -> producer -> producer)

(* The rows [body] passes to its [emit], in order. *)
let gather body =
  let acc = ref [] in
  body (fun row -> acc := row :: !acc);
  List.rev !acc

(* Between operators: a materialised list or the label scan's stream. *)
type flow = Rows of row list | Stream of producer

let feed = function Rows rows -> fun k -> List.iter k rows | Stream p -> p
let rows_of = function Rows rows -> rows | Stream p -> gather p

let step_flow env acc flow = function
  | Eager f -> Rows (f env acc (feed flow))
  | Lazy f -> Stream (f env (feed flow))

let rec compile_op cs (op : Plan.op) : apply =
  match op with
  | Plan.Node_index_seek { var; label; key; value } ->
    let value = compile_scalar cs ~error:"index seek value must be a scalar" value in
    let i = bind cs var in
    Eager
      (fun env _ input ->
        gather (fun emit ->
            input (fun row ->
                List.iter
                  (fun n -> emit (set row i (Inode n)))
                  (Db.index_lookup env.db ~label ~property:key (value env row)))))
  | Plan.Node_label_scan { var; label } ->
    let i = bind cs var in
    Lazy
      (fun env input k ->
        input (fun row -> Seq.iter (fun n -> k (set row i (Inode n))) (Db.nodes_with_label env.db label)))
  | Plan.All_nodes_scan { var } ->
    let i = bind cs var in
    Eager
      (fun env _ input ->
        gather (fun emit ->
            input (fun row -> Seq.iter (fun n -> emit (set row i (Inode n))) (Db.all_nodes env.db))))
  | Plan.Expand { src; rel_var; types; dir; dst; dst_new; uniq } ->
    let src = node_opt_of cs src in
    let u = slot cs.layout uniq in
    let target = target_of cs ~dst ~dst_new in
    let rel_slot = Option.map (bind cs) rel_var in
    let expand env emit (row : row) =
      match src row with
      | None -> ()
      | Some src_node ->
        let used = used_of row u in
        Seq.iter
          (fun e ->
            if not (mem_used e.id used) then begin
              let far = step_target e src_node dir in
              let keep =
                match target with
                | New _ -> true
                | Into i -> ( match row.(i) with Inode n -> n = far | _ -> false)
                | Into_unbound -> raise (Exec_error "expand-into an unbound variable")
              in
              if keep then begin
                let out = copy_row row in
                out.(u) <- Ilist (Iedge e.id :: used);
                Option.iter (fun i -> out.(i) <- Iedge e.id) rel_slot;
                (match target with New i -> out.(i) <- Inode far | _ -> ());
                emit out
              end
            end)
          (edges_seq env.db src_node types dir)
    in
    Eager (fun env _ input -> gather (fun emit -> input (expand env emit)))
  | Plan.Var_expand { src; types; dir; rmin; rmax; dst; dst_new; uniq } ->
    let src = node_opt_of cs src in
    let u = slot cs.layout uniq in
    let target = target_of cs ~dst ~dst_new in
    let expand env emit (row : row) =
      match src row with
      | None -> ()
      | Some src_node ->
        var_length_paths env.db ~src_node ~types ~dir ~rmin ~rmax ~used0:(used_of row u)
          (fun end_node used ->
            let with_used () =
              let r = copy_row row in
              r.(u) <- Ilist used;
              r
            in
            match target with
            | New i ->
              let r = with_used () in
              r.(i) <- Inode end_node;
              emit r
            | Into i -> (
              match row.(i) with Inode n when n = end_node -> emit (with_used ()) | _ -> ())
            | Into_unbound -> raise (Exec_error "var-expand into an unbound variable"))
    in
    Eager (fun env _ input -> gather (fun emit -> input (expand env emit)))
  | Plan.Shortest_path { pvar; src; dst; types; dir; rmax } ->
    let src = node_opt_of cs src in
    let dst = node_opt_of cs dst in
    let path_slot = Option.map (bind cs) pvar in
    Eager
      (fun env _ input ->
        let etype =
          match types with
          | [] -> None
          | [ t ] -> Some t
          | _ -> raise (Exec_error "shortestPath supports at most one relationship type")
        in
        gather (fun emit ->
            input (fun row ->
                match (src row, dst row) with
                | None, _ | _, None -> ()
                | Some a, Some b -> (
                  match
                    Algo.shortest_path ?etype ~direction:dir env.db ~src:a ~dst:b ~max_hops:rmax
                  with
                  | None -> ()
                  | Some nodes -> (
                    match path_slot with Some i -> emit (set row i (Ipath nodes)) | None -> emit row)))))
  | Plan.Node_check { var; pat } ->
    let node = node_of cs var in
    let test = compile_test cs pat in
    Eager
      (fun env _ input -> gather (fun emit -> input (fun row -> if test env row (node row) then emit row)))
  | Plan.Filter expr ->
    let pred = compile_pred cs.layout cs.bound expr in
    Eager (fun env _ input -> gather (fun emit -> input (fun row -> if pred env row then emit row)))
  | Plan.Project items ->
    let items = List.map (fun (expr, alias) -> (compile_expr cs.layout cs.bound expr, alias)) items in
    cs.bound <- Sset.empty;
    let items = List.map (fun (f, alias) -> (f, bind cs alias)) items in
    let layout = cs.layout in
    Eager
      (fun env _ input ->
        gather (fun emit ->
            input (fun row ->
                let out = empty_row layout in
                List.iter (fun (f, i) -> out.(i) <- f env row) items;
                emit out)))
  | Plan.Aggregate { groups; aggs } ->
    let groups = List.map (fun (expr, alias) -> (compile_expr cs.layout cs.bound expr, alias)) groups in
    let aggs =
      List.map
        (fun (kind, arg, alias) -> (kind, Option.map (compile_expr cs.layout cs.bound) arg, alias))
        aggs
    in
    cs.bound <- Sset.empty;
    let group_slots = List.map (fun (_, alias) -> bind cs alias) groups in
    let agg_slots = List.map (fun (_, _, alias) -> bind cs alias) aggs in
    let layout = cs.layout in
    let fresh_states () = List.map (fun (kind, _, _) -> make_agg_state kind) aggs in
    Eager
      (fun env _ input ->
        let grouped = Key_tbl.create 64 in
        input (fun row ->
            let key = List.map (fun (f, _) -> f env row) groups in
            let states =
              match Key_tbl.find_opt grouped key with
              | Some states -> states
              | None ->
                let states = fresh_states () in
                Key_tbl.add grouped key states;
                states
            in
            List.iter2
              (fun state (_, arg, _) ->
                match arg with
                | None -> state.update None
                | Some f -> state.update (Some (f env row)))
              states aggs);
        (* Global aggregation over zero rows still yields one row. *)
        if Key_tbl.length grouped = 0 && groups = [] then Key_tbl.add grouped [] (fresh_states ());
        Key_tbl.fold (fun key states acc -> (key, states) :: acc) grouped []
        |> List.sort (fun (a, _) (b, _) -> key_compare a b)
        |> List.map (fun (key, states) ->
               let out = empty_row layout in
               List.iter2 (fun i item -> out.(i) <- item) group_slots key;
               List.iter2 (fun i state -> out.(i) <- state.finish ()) agg_slots states;
               out))
  | Plan.Distinct ->
    let columns = List.map (fun v -> (v, slot cs.layout v)) (Sset.elements cs.bound) in
    let rec canonical_item = function
      | Ival value -> Value.to_display value
      | Inode n -> "n" ^ string_of_int n
      | Iedge e -> "e" ^ string_of_int e
      | Ipath p -> "p" ^ String.concat "," (List.map string_of_int p)
      | Ilist items -> "[" ^ String.concat ";" (List.map canonical_item items) ^ "]"
    in
    Eager
      (fun _ _ input ->
        let seen = Hashtbl.create 64 in
        gather (fun emit ->
            input (fun row ->
                let canonical =
                  String.concat "|"
                    (List.map (fun (k, i) -> k ^ "=" ^ canonical_item row.(i)) columns)
                in
                if not (Hashtbl.mem seen canonical) then begin
                  Hashtbl.replace seen canonical ();
                  emit row
                end)))
  | Plan.Sort order_items ->
    let keys =
      List.map (fun (expr, dir) -> (compile_expr cs.layout cs.bound expr, dir)) order_items
    in
    Eager
      (fun env _ input ->
        let decorated =
          gather (fun emit -> input (fun row -> emit (List.map (fun (f, _) -> f env row) keys, row)))
        in
        let compare_keys (ka, _) (kb, _) =
          let rec go ks_a ks_b dirs =
            match (ks_a, ks_b, dirs) with
            | [], [], _ -> 0
            | a :: ra, b :: rb, (_, dir) :: rd ->
              let c = item_compare a b in
              let c = match dir with `Asc -> c | `Desc -> -c in
              if c <> 0 then c else go ra rb rd
            | _ -> 0
          in
          go ka kb keys
        in
        List.map snd (List.stable_sort compare_keys decorated))
  | Plan.Skip_op expr ->
    let n = compile_int cs expr "SKIP" in
    Eager
      (fun env _ input ->
        let n = n env and seen = ref 0 in
        gather (fun emit ->
            input (fun row ->
                if !seen >= n then emit row;
                incr seen)))
  | Plan.Limit_op expr ->
    let n = compile_int cs expr "LIMIT" in
    Eager
      (fun env _ input ->
        let n = n env and seen = ref 0 in
        gather (fun emit ->
            input (fun row ->
                if !seen < n then emit row;
                incr seen)))
  (* Writers read their whole input before their first write, so a
     streamed label scan never sees the statement's own changes. *)
  | Plan.Create_op paths ->
    let paths = List.map (compile_create_path cs) paths in
    Eager
      (fun env acc input ->
        List.map
          (fun row ->
            let row = copy_row row in
            List.iter (create_path env acc row) paths;
            row)
          (gather input))
  | Plan.Set_op items ->
    let items =
      List.map
        (function
          | Ast.Set_property (v, k, e) ->
            (v, item_of cs v, k, Some (compile_scalar cs ~error:"SET values must be scalars" e))
          | Ast.Remove_property (v, k) -> (v, item_of cs v, k, None))
        items
    in
    Eager
      (fun env acc input ->
        let rows = gather input in
        List.iter
          (fun row ->
            List.iter
              (fun (var, target, key, value) ->
                let value = match value with Some f -> f env row | None -> Value.Null in
                (match target row with
                | Inode n -> Db.set_node_property env.db n key value
                | Iedge e -> Db.set_edge_property env.db e key value
                | _ -> raise (Exec_error (Printf.sprintf "SET on non-entity %s" var)));
                acc.u_properties_set <- acc.u_properties_set + 1)
              items)
          rows;
        rows)
  | Plan.Unwind_op (expr, var) ->
    let f = compile_expr cs.layout cs.bound expr in
    let i = bind cs var in
    Eager
      (fun env _ input ->
        gather (fun emit ->
            input (fun row ->
                match f env row with
                | Ilist items -> List.iter (fun item -> emit (set row i item)) items
                | Ival Value.Null -> ()
                | scalar -> emit (set row i scalar))))
  | Plan.Merge_op pat ->
    let test = compile_test cs pat in
    let props = compile_props cs pat.Ast.nprops in
    let var_slot = Option.map (bind cs) pat.Ast.nvar in
    Eager
      (fun env acc input ->
        List.concat_map
          (fun row ->
            let label = Option.get pat.Ast.nlabel in
            let matches =
              List.of_seq (Seq.filter (test env row) (Db.nodes_with_label env.db label))
            in
            let nodes =
              match matches with
              | [] ->
                let node = Db.create_node env.db ~label (eval_props env row props) in
                acc.u_nodes_created <- acc.u_nodes_created + 1;
                acc.u_properties_set <- acc.u_properties_set + List.length props;
                [ node ]
              | _ -> matches
            in
            match var_slot with
            | Some i -> List.map (fun n -> set row i (Inode n)) nodes
            | None -> [ row ])
          (gather input))
  | Plan.Optional_op { ops; new_vars } ->
    let sub = List.map (compile_op cs) ops in
    let null_slots = List.map (slot cs.layout) new_vars in
    Eager
      (fun env acc input ->
        gather (fun emit ->
            input (fun row ->
                match rows_of (List.fold_left (step_flow env acc) (Rows [ row ]) sub) with
                | [] ->
                  let row = copy_row row in
                  List.iter (fun i -> row.(i) <- v_null) null_slots;
                  emit row
                | rows -> List.iter emit rows)))
  | Plan.Delete_op { detach; vars } ->
    let vars = List.map (fun v -> (v, item_of cs v)) vars in
    (* Rows may mention the same entity several times; deletes are
       idempotent within the statement. *)
    Eager
      (fun env acc input ->
        let db = env.db in
        let rows = gather input in
        List.iter
          (fun row ->
            List.iter
              (fun (var, item) ->
                match item row with
                | Iedge e ->
                  if Db.edge_exists db e then begin
                    Db.delete_edge db e;
                    acc.u_edges_deleted <- acc.u_edges_deleted + 1
                  end
                | Inode n ->
                  if Db.node_exists db n then begin
                    if detach then
                      List.iter
                        (fun (edge : Mgq_core.Types.edge) ->
                          if Db.edge_exists db edge.id then begin
                            Db.delete_edge db edge.id;
                            acc.u_edges_deleted <- acc.u_edges_deleted + 1
                          end)
                        (List.of_seq (Db.edges_of db n Both));
                    (try Db.delete_node db n
                     with Failure _ ->
                       raise
                         (Exec_error
                            (Printf.sprintf
                               "cannot delete node %s: it still has relationships (use DETACH \
                                DELETE)"
                               var)));
                    acc.u_nodes_deleted <- acc.u_nodes_deleted + 1
                  end
                | _ -> raise (Exec_error (Printf.sprintf "DELETE of non-entity %s" var)))
              vars)
          rows;
        rows)

(* ---------------- compiled plans ---------------- *)

type step = { op_name : string; op_detail : string; span : string; apply : apply }

type compiled = {
  layout : layout;
  params : string array;
  steps : step list;
  columns : string list;
  outputs : (row -> item) list;
}

let compile (plan : Plan.t) =
  let cs = { layout = layout (); bound = Sset.empty } in
  let steps =
    List.map
      (fun op ->
        let name = Plan.op_name op in
        { op_name = name; op_detail = Plan.op_detail op; span = "op." ^ name; apply = compile_op cs op })
      plan.Plan.ops
  in
  let outputs =
    List.map
      (fun column ->
        if is_bound cs column then
          let i = slot cs.layout column in
          fun (row : row) -> row.(i)
        else fun _ -> raise (Exec_error (Printf.sprintf "missing output column %s" column)))
      plan.Plan.columns
  in
  { layout = cs.layout; params = param_names cs.layout; steps; columns = plan.Plan.columns; outputs }

(* ---------------- driver ---------------- *)

(* One operator's share of an instrumented run. *)
type tally = { step : step; mutable t_rows : int; mutable t_hits : int }

(* Profiling and tracing attribute every db hit to one operator. A
   materialising operator is bracketed whole, less what the stream it
   reads charges meanwhile. A stream runs inside its consumer, its span
   nested in the consumer's: it counts its rows and brackets each call
   into the consumer, so the hits it charges outside those calls are
   its own plus those of any stream it reads in turn. The per-operator
   totals are the ones a materialised scan would show; only the order
   of the hits changes. *)
let run_instrumented hits env acc steps first =
  let tallies = ref [] in
  (* [outside]: hits the stream feeding the next operator has charged
     outside its consumer's calls, its own input's included. *)
  let rec go flow outside = function
    | [] -> rows_of flow
    | step :: rest -> (
      let tally = { step; t_rows = 0; t_hits = 0 } in
      tallies := tally :: !tallies;
      let note () =
        Obs.Trace.note_int "db_hits" tally.t_hits;
        Obs.Trace.note_int "rows" tally.t_rows
      in
      match step.apply with
      | Eager f ->
        let before = hits () in
        let rows =
          Obs.Trace.with_span step.span @@ fun () ->
          let rows = f env acc (feed flow) in
          tally.t_hits <- hits () - before - !outside;
          tally.t_rows <- List.length rows;
          note ();
          rows
        in
        go (Rows rows) (ref 0) rest
      | Lazy f ->
        let stream = f env (feed flow) in
        let mine = ref 0 in
        let counted k =
          Obs.Trace.with_span step.span @@ fun () ->
          let start = hits () and inside = ref 0 in
          stream (fun row ->
              tally.t_rows <- tally.t_rows + 1;
              let h = hits () in
              k row;
              inside := !inside + (hits () - h));
          mine := !mine + (hits () - start - !inside);
          tally.t_hits <- !mine - !outside;
          note ()
        in
        go (Stream counted) mine rest)
  in
  let rows = go (Rows [ first ]) (ref 0) steps in
  let entries =
    List.rev_map
      (fun t ->
        { name = t.step.op_name; detail = t.step.op_detail; rows = t.t_rows; db_hits = t.t_hits })
      !tallies
  in
  (rows, entries)

let run ?budget db ~params ~profile (prog : compiled) =
  let cost = Sim_disk.cost (Db.disk db) in
  Cost_model.with_budget cost budget @@ fun () ->
  Obs.Trace.with_span "cypher.execute" @@ fun () ->
  let hits () = Cost_model.db_hits cost in
  let run_hits_before = hits () in
  let env = Runtime.env db prog.params params in
  let acc =
    {
      u_nodes_created = 0;
      u_edges_created = 0;
      u_properties_set = 0;
      u_nodes_deleted = 0;
      u_edges_deleted = 0;
    }
  in
  let first = empty_row prog.layout in
  let rows, entries =
    if profile || Obs.Trace.enabled () then run_instrumented hits env acc prog.steps first
    else
      ( rows_of
          (List.fold_left (fun flow step -> step_flow env acc flow step.apply) (Rows [ first ]) prog.steps),
        [] )
  in
  let run_hits_after = hits () in
  let n_rows = List.length rows in
  Obs.Counter.incr ~by:(run_hits_after - run_hits_before) m_db_hits;
  Obs.Counter.incr ~by:n_rows m_rows;
  Obs.Trace.note_int "db_hits" (run_hits_after - run_hits_before);
  Obs.Trace.note_int "rows" n_rows;
  {
    columns = prog.columns;
    rows = List.map (fun row -> List.map (fun output -> output row) prog.outputs) rows;
    profile = (if profile then Some entries else None);
    updates =
      {
        nodes_created = acc.u_nodes_created;
        edges_created = acc.u_edges_created;
        properties_set = acc.u_properties_set;
        nodes_deleted = acc.u_nodes_deleted;
        edges_deleted = acc.u_edges_deleted;
      };
  }

let total_db_hits entries = List.fold_left (fun acc e -> acc + e.db_hits) 0 entries

let profile_to_string entries =
  let rows =
    List.map
      (fun e -> [ e.name; e.detail; string_of_int e.rows; string_of_int e.db_hits ])
      entries
  in
  Mgq_util.Text_table.render
    ~aligns:[ Mgq_util.Text_table.Left; Left; Right; Right ]
    ~header:[ "operator"; "detail"; "rows"; "db hits" ]
    rows
