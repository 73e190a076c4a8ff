module Db = Mgq_neo.Db
module Value = Mgq_core.Value
module Sset = Set.Make (String)
open Mgq_core.Types

type item =
  | Inode of node_id
  | Iedge of edge_id
  | Ipath of node_id list
  | Ival of Value.t
  | Ilist of item list

type params = (string * Value.t) list

exception Eval_error of string

let rec item_equal a b =
  match (a, b) with
  | Inode x, Inode y -> x = y
  | Iedge x, Iedge y -> x = y
  | Ipath x, Ipath y -> x = y
  | Ival x, Ival y -> Value.equal x y
  | Ilist x, Ilist y -> List.length x = List.length y && List.for_all2 item_equal x y
  | (Inode _ | Iedge _ | Ipath _ | Ival _ | Ilist _), _ -> false

let kind_rank = function
  | Ival Value.Null -> 5 (* nulls last *)
  | Ival _ -> 0
  | Inode _ -> 1
  | Iedge _ -> 2
  | Ipath _ -> 3
  | Ilist _ -> 4

let rec item_compare a b =
  match (a, b) with
  | Ival (Value.Int x), Ival (Value.Int y) -> Int.compare x y
  | Ival x, Ival y -> (
    match Value.compare_values x y with
    | Some c -> c
    | None -> (
      match (x, y) with
      | Value.Null, Value.Null -> 0
      | Value.Null, _ -> 1
      | _, Value.Null -> -1
      | _ -> compare (Value.type_name x) (Value.type_name y)))
  | Inode x, Inode y -> compare x y
  | Iedge x, Iedge y -> compare x y
  | Ipath x, Ipath y -> compare x y
  | Ilist x, Ilist y -> List.compare item_compare x y
  | _ -> compare (kind_rank a) (kind_rank b)

let item_to_value = function
  | Ival v -> v
  | Inode id -> Value.Int id
  | Iedge id -> Value.Int id
  | Ipath nodes -> Value.Int (List.length nodes - 1)
  | Ilist _ -> raise (Eval_error "cannot render a list as a scalar value")

(* ------------------------------------------------------------------ *)
(* Slot rows                                                           *)
(* ------------------------------------------------------------------ *)

type row = item array

type layout = { slot_tbl : (string, int) Hashtbl.t; param_tbl : (string, int) Hashtbl.t }

let layout () = { slot_tbl = Hashtbl.create 16; param_tbl = Hashtbl.create 8 }

let index tbl name =
  match Hashtbl.find_opt tbl name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length tbl in
    Hashtbl.replace tbl name i;
    i

let slot l name = index l.slot_tbl name

let param_names l =
  let names = Array.make (Hashtbl.length l.param_tbl) "" in
  Hashtbl.iter (fun name i -> names.(i) <- name) l.param_tbl;
  names

let v_null = Ival Value.Null
let v_true = Ival (Value.Bool true)
let v_false = Ival (Value.Bool false)
let of_bool b = if b then v_true else v_false

(* Array literals allocate inline; [Array.copy] and [Array.make] are C
   calls costing about four times as much, once per emitted row. *)
let copy_row (r : row) : row =
  match r with
  | [| a |] -> [| a |]
  | [| a; b |] -> [| a; b |]
  | [| a; b; c |] -> [| a; b; c |]
  | [| a; b; c; d |] -> [| a; b; c; d |]
  | [| a; b; c; d; e |] -> [| a; b; c; d; e |]
  | [| a; b; c; d; e; f |] -> [| a; b; c; d; e; f |]
  | _ -> Array.copy r

(* Slots no binding has reached hold null; the compiler never reads
   them, because it resolves every read against the bound set. *)
let empty_row l = Array.make (Hashtbl.length l.slot_tbl) v_null

type env = { db : Db.t; params : Value.t option array }

let env db names params = { db; params = Array.map (fun name -> List.assoc_opt name params) names }

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

let arith_op op a b =
  let float_op x y =
    match op with
    | Ast.Add -> x +. y
    | Ast.Sub -> x -. y
    | Ast.Mul -> x *. y
    | Ast.Div -> x /. y
  in
  match (a, b) with
  | Value.Int x, Value.Int y -> (
    match op with
    | Ast.Add -> Value.Int (x + y)
    | Ast.Sub -> Value.Int (x - y)
    | Ast.Mul -> Value.Int (x * y)
    | Ast.Div ->
      if y = 0 then raise (Eval_error "division by zero") else Value.Int (x / y))
  | Value.Int x, Value.Float y -> Value.Float (float_op (float_of_int x) y)
  | Value.Float x, Value.Int y -> Value.Float (float_op x (float_of_int y))
  | Value.Float x, Value.Float y -> Value.Float (float_op x y)
  | Value.Str x, Value.Str y when op = Ast.Add -> Value.Str (x ^ y)
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ -> raise (Eval_error "type error in arithmetic")

let prop_value db item key =
  match item with
  | Inode n -> Db.node_property db n key
  | Iedge e -> Db.edge_property db e key
  | Ival Value.Null -> Value.Null
  | _ -> raise (Eval_error (Printf.sprintf "property access .%s on a non-entity" key))

let param_value env i name =
  match env.params.(i) with
  | Some v -> v
  | None -> raise (Eval_error (Printf.sprintf "missing parameter $%s" name))

(* Comparison results, from operands already read as values. *)
let equal x y = of_bool (Value.equal x y)

let not_equal x y =
  match (x, y) with
  | Value.Null, _ | _, Value.Null -> v_null
  | _ -> of_bool (not (Value.equal x y))

let ordered holds x y =
  match (x, y) with
  | Value.Int a, Value.Int b -> of_bool (holds (Int.compare a b))
  | _ -> ( match Value.compare_values x y with None -> v_null | Some c -> of_bool (holds c))

let holds_of = function
  | Ast.Lt -> fun c -> c < 0
  | Ast.Le -> fun c -> c <= 0
  | Ast.Gt -> fun c -> c > 0
  | Ast.Ge -> fun c -> c >= 0
  | Ast.Eq | Ast.Neq -> invalid_arg "holds_of"

let truthy = function Ival v -> Value.is_truthy v | _ -> false

let raising exn _ _ = raise exn

(* The node a statically bound pattern variable holds, if any. *)
let node_in slot row =
  match slot with
  | Some i -> ( match row.(i) with Inode n -> Some n | _ -> None)
  | None -> None

type node_test = env -> row -> node_id -> bool

(* One step of a pattern predicate, resolved against the bound set. *)
type pstep = {
  rel : Ast.rel_pat;
  node_slot : int option;
  node_test : node_test option;  (** [None]: no label or property to check *)
}

let neighbours db (rel : Ast.rel_pat) node f =
  match rel.Ast.rtypes with
  | [] -> Seq.iter f (Db.neighbors db node rel.Ast.rdir)
  | types -> List.iter (fun t -> Seq.iter f (Db.neighbors db node ~etype:t rel.Ast.rdir)) types

let single_hop (rel : Ast.rel_pat) = rel.Ast.rmin = 1 && rel.Ast.rmax = 1

(* Nodes reachable from [node] through [rel] at any depth within
   [rmin, rmax], de-duplicated; used for existence only. *)
let reachable db (rel : Ast.rel_pat) node =
  let expand_one n =
    let acc = ref [] in
    neighbours db rel n (fun m -> acc := m :: !acc);
    List.rev !acc
  in
  if single_hop rel then expand_one node
  else begin
    let seen = Hashtbl.create 64 in
    let results = ref [] in
    let rec bfs frontier depth =
      if depth < rel.Ast.rmax && frontier <> [] then begin
        let next =
          List.concat_map expand_one frontier
          |> List.filter (fun n ->
                 if Hashtbl.mem seen (n, depth + 1) then false
                 else begin
                   Hashtbl.replace seen (n, depth + 1) ();
                   true
                 end)
        in
        if depth + 1 >= rel.Ast.rmin then results := next @ !results;
        bfs next (depth + 1)
      end
    in
    bfs [ node ] 0;
    List.sort_uniq compare !results
  end

let test_node test env row n = match test with None -> true | Some f -> f env row n

let wanted required n = match required with Some r -> n = r | None -> true

(* Existence walk. Every neighbour scan runs to the end of its
   sequence — db hits are charged per scanned entry — before any
   candidate is tested; a last single-hop step with nothing to test
   folds the scan straight into the answer. *)
let rec walk env row node = function
  | [] -> true
  | [ { rel; node_slot; node_test = None } ] when single_hop rel ->
    let required = node_in node_slot row in
    let found = ref false in
    neighbours env.db rel node (fun n -> if wanted required n then found := true);
    !found
  | step :: rest ->
    let required = node_in step.node_slot row in
    List.exists
      (fun n -> wanted required n && test_node step.node_test env row n && walk env row n rest)
      (reachable env.db step.rel node)

(* A comparison operand that is a literal, a parameter or a property
   of a bound variable, read as a value without boxing. *)
let compile_value l bound (expr : Ast.expr) =
  match expr with
  | Ast.Lit v -> Some (fun _ _ -> v)
  | Ast.Param p ->
    let i = index l.param_tbl p in
    Some (fun env _ -> param_value env i p)
  | Ast.Prop (Ast.Var v, key) when Sset.mem v bound ->
    let i = slot l v in
    Some (fun env (row : row) -> prop_value env.db row.(i) key)
  | _ -> None

let rec compile_expr l bound (expr : Ast.expr) : env -> row -> item =
  let sub = compile_expr l bound in
  match expr with
  | Ast.Lit v ->
    let it = Ival v in
    fun _ _ -> it
  | Ast.Param p ->
    let i = index l.param_tbl p in
    fun env _ -> Ival (param_value env i p)
  | Ast.Var v ->
    if Sset.mem v bound then
      let i = slot l v in
      fun _ (row : row) -> row.(i)
    else raising (Eval_error (Printf.sprintf "unbound variable %s" v))
  | Ast.Prop (e, key) -> (
    match compile_value l bound expr with
    | Some f -> fun env row -> Ival (f env row)
    | None ->
      let f = sub e in
      fun env row -> Ival (prop_value env.db (f env row) key))
  | Ast.Cmp (op, a, b) -> (
    match (compile_value l bound a, compile_value l bound b) with
    | Some fa, Some fb -> (
      let cmp =
        match op with Ast.Eq -> equal | Ast.Neq -> not_equal | _ -> ordered (holds_of op)
      in
      fun env row ->
        let x = fa env row in
        cmp x (fb env row))
    | _ -> (
      let fa = sub a and fb = sub b in
      match op with
      | Ast.Eq ->
        fun env row ->
          let va = fa env row in
          of_bool (item_equal va (fb env row))
      | Ast.Neq ->
        fun env row -> (
          let va = fa env row in
          match (va, fb env row) with
          | Ival x, Ival y -> not_equal x y
          | Ival Value.Null, _ | _, Ival Value.Null -> v_null
          | va, vb -> of_bool (not (item_equal va vb)))
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
        let holds = holds_of op in
        fun env row -> (
          let va = fa env row in
          match (va, fb env row) with
          | Ival x, Ival y -> ordered holds x y
          | _ -> raise (Eval_error "ordering comparison on non-values"))))
  | Ast.Arith (op, a, b) -> (
    let fa = sub a and fb = sub b in
    fun env row ->
      let va = fa env row in
      let vb = fb env row in
      match (va, vb) with
      | Ival x, Ival y -> Ival (arith_op op x y)
      | _ -> raise (Eval_error "arithmetic on non-values"))
  | Ast.And (a, b) ->
    let fa = sub a and fb = sub b in
    fun env row -> of_bool (truthy (fa env row) && truthy (fb env row))
  | Ast.Or (a, b) ->
    let fa = sub a and fb = sub b in
    fun env row -> of_bool (truthy (fa env row) || truthy (fb env row))
  | Ast.Not a ->
    let fa = sub a in
    fun env row -> of_bool (not (truthy (fa env row)))
  | Ast.In_coll (a, coll) -> (
    let fa = sub a and fc = sub coll in
    fun env row ->
      let va = fa env row in
      match fc env row with
      | Ilist items -> of_bool (List.exists (item_equal va) items)
      | Ival Value.Null -> v_null
      | _ -> raise (Eval_error "IN requires a list on the right"))
  | Ast.List_lit es ->
    let fs = List.map sub es in
    fun env row -> Ilist (List.map (fun f -> f env row) fs)
  | Ast.Fn (name, args) -> compile_fn l bound name args
  | Ast.Agg _ -> raising (Eval_error "aggregate in a scalar context")
  | Ast.Pattern_pred path ->
    let exists = compile_pattern l bound path in
    fun env row -> of_bool (exists env row)

and compile_fn l bound name args =
  let one =
    match args with
    | [ a ] -> compile_expr l bound a
    | _ -> raising (Eval_error (Printf.sprintf "%s expects one argument" name))
  in
  match name with
  | "id" -> (
    fun env row ->
      match one env row with
      | Inode n -> Ival (Value.Int n)
      | Iedge e -> Ival (Value.Int e)
      | _ -> raise (Eval_error "id() expects a node or relationship"))
  | "length" -> (
    fun env row ->
      match one env row with
      | Ipath nodes -> Ival (Value.Int (List.length nodes - 1))
      | Ilist items -> Ival (Value.Int (List.length items))
      | Ival (Value.Str s) -> Ival (Value.Int (String.length s))
      | _ -> raise (Eval_error "length() expects a path, list or string"))
  | "size" -> (
    fun env row ->
      match one env row with
      | Ilist items -> Ival (Value.Int (List.length items))
      | Ival (Value.Str s) -> Ival (Value.Int (String.length s))
      | _ -> raise (Eval_error "size() expects a list or string"))
  | "type" -> (
    fun env row ->
      match one env row with
      | Iedge e -> Ival (Value.Str (Db.edge env.db e).etype)
      | _ -> raise (Eval_error "type() expects a relationship"))
  | "labels" -> (
    fun env row ->
      match one env row with
      | Inode n -> Ival (Value.Str (Db.node_label env.db n))
      | _ -> raise (Eval_error "labels() expects a node"))
  | "nodes" -> (
    fun env row ->
      match one env row with
      | Ipath nodes -> Ilist (List.map (fun n -> Inode n) nodes)
      | _ -> raise (Eval_error "nodes() expects a path"))
  | "coalesce" ->
    let fs = List.map (compile_expr l bound) args in
    fun env row ->
      let rec first = function
        | [] -> v_null
        | f :: rest -> ( match f env row with Ival Value.Null -> first rest | v -> v)
      in
      first fs
  | other -> raising (Eval_error (Printf.sprintf "unknown function %s()" other))

and compile_node_test ~error l bound (pat : Ast.node_pat) : node_test option =
  let props = List.map (fun (key, e) -> (key, compile_expr l bound e)) pat.Ast.nprops in
  match (pat.Ast.nlabel, props) with
  | None, [] -> None
  | label, props ->
    Some
      (fun env row node ->
        (match label with
        | Some label -> String.equal (Db.node_label env.db node) label
        | None -> true)
        && List.for_all
             (fun (key, f) ->
               let expected =
                 match f env row with
                 | Ival v -> v
                 | _ -> raise (error "property constraint must be a scalar")
               in
               Value.equal (Db.node_property env.db node key) expected)
             props)

(* A pattern predicate starts from whichever end is bound to a node,
   else scans the start label. *)
and compile_pattern l bound (path : Ast.pattern_path) =
  let error m = Eval_error m in
  let node_slot (pat : Ast.node_pat) =
    match pat.Ast.nvar with Some v when Sset.mem v bound -> Some (slot l v) | _ -> None
  in
  let orient (p : Ast.pattern_path) =
    let steps =
      List.map
        (fun (rel, (pat : Ast.node_pat)) ->
          { rel; node_slot = node_slot pat; node_test = compile_node_test ~error l bound pat })
        p.Ast.psteps
    in
    (node_slot p.Ast.pstart, compile_node_test ~error l bound p.Ast.pstart, steps)
  in
  let ((start_slot, _, _) as forward) = orient path in
  let ((end_slot, _, _) as backward) = orient (Plan.reverse_path path) in
  let from (_, start_test, steps) env row n = test_node start_test env row n && walk env row n steps in
  fun env row ->
    match node_in start_slot row with
    | Some n -> from forward env row n
    | None -> (
      match node_in end_slot row with
      | Some n -> from backward env row n
      | None ->
        let starts =
          match path.Ast.pstart.Ast.nlabel with
          | Some label -> List.of_seq (Db.nodes_with_label env.db label)
          | None -> List.of_seq (Db.all_nodes env.db)
        in
        List.exists (from forward env row) starts)

let compile_pred l bound expr =
  let f = compile_expr l bound expr in
  fun env row -> truthy (f env row)
