module Db = Mgq_neo.Db
module Catalog = Mgq_catalog.Catalog

type ann = { est_rows : float; est_cost : float }

type ctx = {
  stats : Catalog.t;
  mutable rows : float;
  labels : (string, string) Hashtbl.t; (* variable -> inferred label *)
  prov : (string, string * string) Hashtbl.t; (* alias -> (label, key) *)
}

let fmax = Float.max
let fmin = Float.min

(* Floored variants serve as denominators; the raw counts drive scan
   cardinalities so that label-scan estimates stay exact (including
   zero on an absent label). *)
let raw_label_count ctx label = float_of_int (Catalog.label_count ctx.stats label)
let raw_total_nodes ctx = float_of_int (Catalog.total_nodes ctx.stats)
let label_count ctx label = fmax 1.0 (raw_label_count ctx label)
let total_nodes ctx = fmax 1.0 (raw_total_nodes ctx)

(* Σ_{d=rmin}^{rmax} avg^d — expected endpoints of a variable-length
   expansion under a uniform branching assumption. *)
let geometric avg rmin rmax =
  let rec go acc pow d =
    if d > rmax then acc else go (if d >= rmin then acc +. pow else acc) (pow *. avg) (d + 1)
  in
  go 0.0 avg 1

(* Average fan-out of one expansion step. Multiple relationship types
   expand each type's chain, so their averages add. *)
let expand_avg ctx ~src_label ~types ~dir =
  match types with
  | [] -> (Catalog.degree_summary ctx.stats ~src_label ~etype:None ~dir).Catalog.ds_avg
  | ts ->
    List.fold_left
      (fun acc t ->
        acc
        +. (Catalog.degree_summary ctx.stats ~src_label ~etype:(Some t) ~dir).Catalog.ds_avg)
      0.0 ts

(* The label an expansion provably reaches, from the observed endpoint
   schema: meaningful only when every traversed edge type agrees on a
   single endpoint label. *)
let reached_label ctx ~types ~dir =
  match types with
  | [ t ] -> (
    match Catalog.endpoint_labels ctx.stats ~etype:t ~dir with [ l ] -> Some l | _ -> None)
  | _ -> None

let var_label ctx v = Hashtbl.find_opt ctx.labels v

(* Candidate pool an expansion target is drawn from — for expand-into
   and pattern-predicate selectivities. *)
let target_pool ctx dst = match var_label ctx dst with Some l -> label_count ctx l | None -> total_nodes ctx

(* Expected rows with [label].[key] = rhs, per the MCV sketch. *)
let eq_rows ctx label key rhs =
  let value = match rhs with Ast.Lit v -> Some v | _ -> None in
  Catalog.eq_rows ctx.stats ~label ~key value

let eq_selectivity ctx v key rhs =
  match var_label ctx v with
  | Some label -> fmin 1.0 (eq_rows ctx label key rhs /. label_count ctx label)
  | None -> 0.1

(* Expected matches of a pattern predicate for one row with its start
   bound: multiply step fan-outs, then (when the final node is also
   bound) divide by its candidate pool. *)
let pattern_expected ctx (p : Ast.pattern_path) =
  let step (lbl, acc) ((rel : Ast.rel_pat), (node : Ast.node_pat)) =
    let avg = expand_avg ctx ~src_label:lbl ~types:rel.Ast.rtypes ~dir:rel.Ast.rdir in
    let rmax = if rel.Ast.rmax = max_int then 15 else rel.Ast.rmax in
    let fan = if rel.Ast.rmin = 1 && rmax = 1 then avg else geometric avg rel.Ast.rmin rmax in
    let lbl' =
      match node.Ast.nlabel with
      | Some l -> Some l
      | None -> reached_label ctx ~types:rel.Ast.rtypes ~dir:rel.Ast.rdir
    in
    (lbl', acc *. fan)
  in
  let start_label =
    match p.Ast.pstart.Ast.nlabel with
    | Some l -> Some l
    | None -> Option.bind p.Ast.pstart.Ast.nvar (var_label ctx)
  in
  let _, expected = List.fold_left step (start_label, 1.0) p.Ast.psteps in
  let final = Plan.path_end p in
  match final.Ast.nvar with
  | Some v when Hashtbl.mem ctx.labels v || v <> "" ->
    (* A named final node is (in WHERE position) a bound row variable:
       the predicate asks for a path to that specific node. *)
    fmin 1.0 (expected /. target_pool ctx v)
  | _ -> fmin 1.0 expected

let rec selectivity ctx (e : Ast.expr) =
  match e with
  | Ast.And (a, b) -> selectivity ctx a *. selectivity ctx b
  | Ast.Or (a, b) ->
    let sa = selectivity ctx a and sb = selectivity ctx b in
    sa +. sb -. (sa *. sb)
  | Ast.Not a -> 1.0 -. selectivity ctx a
  | Ast.Cmp (Ast.Eq, Ast.Prop (Ast.Var v, k), rhs) -> eq_selectivity ctx v k rhs
  | Ast.Cmp (Ast.Eq, lhs, Ast.Prop (Ast.Var v, k)) -> eq_selectivity ctx v k lhs
  | Ast.Cmp (Ast.Neq, Ast.Prop (Ast.Var v, k), rhs) -> 1.0 -. eq_selectivity ctx v k rhs
  | Ast.Cmp (Ast.Neq, lhs, Ast.Prop (Ast.Var v, k)) -> 1.0 -. eq_selectivity ctx v k lhs
  | Ast.Cmp (Ast.Eq, _, _) -> 0.1
  | Ast.Cmp (Ast.Neq, _, _) -> 0.9
  | Ast.Cmp (_, _, _) -> 1.0 /. 3.0
  | Ast.Pattern_pred p -> pattern_expected ctx p
  | Ast.In_coll (_, Ast.List_lit es) -> fmin 1.0 (0.1 *. float_of_int (List.length es))
  | Ast.In_coll (_, _) -> 0.5
  | Ast.Lit (Mgq_core.Value.Bool b) -> if b then 1.0 else 0.0
  | _ -> 0.5

(* Db hits one evaluation of a predicate roughly costs: each property
   access walks a chain (~2 hits), a pattern predicate expands. *)
let rec predicate_cost ctx (e : Ast.expr) =
  match e with
  | Ast.And (a, b) | Ast.Or (a, b) | Ast.Cmp (_, a, b) | Ast.Arith (_, a, b) | Ast.In_coll (a, b)
    ->
    predicate_cost ctx a +. predicate_cost ctx b
  | Ast.Not a -> predicate_cost ctx a
  | Ast.Prop (e, _) -> 2.0 +. predicate_cost ctx e
  | Ast.Pattern_pred p ->
    let src_label =
      match p.Ast.pstart.Ast.nvar with Some v -> var_label ctx v | None -> None
    in
    let avg =
      match p.Ast.psteps with
      | ((rel : Ast.rel_pat), _) :: _ ->
        expand_avg ctx ~src_label ~types:rel.Ast.rtypes ~dir:rel.Ast.rdir
      | [] -> 0.0
    in
    1.0 +. avg
  | Ast.List_lit es | Ast.Fn (_, es) -> List.fold_left (fun a e -> a +. predicate_cost ctx e) 0.0 es
  | Ast.Agg (_, arg) -> ( match arg with Some a -> predicate_cost ctx a | None -> 0.0)
  | Ast.Lit _ | Ast.Param _ | Ast.Var _ -> 0.0

let distinct_of ctx r (e : Ast.expr) =
  match e with
  | Ast.Prop (Ast.Var v, k) -> (
    match var_label ctx v with
    | Some label ->
      let d = Catalog.distinct_count ctx.stats ~label ~key:k in
      if d = 0 then r else float_of_int d
    | None -> r)
  | Ast.Var v -> (
    match Hashtbl.find_opt ctx.prov v with
    | Some (label, key) ->
      let d = Catalog.distinct_count ctx.stats ~label ~key in
      if d = 0 then r else float_of_int d
    | None -> (
      match var_label ctx v with Some label -> label_count ctx label | None -> r))
  | Ast.Lit _ | Ast.Param _ -> 1.0
  | _ -> r

(* Track which label a projection alias carries forward. *)
let record_provenance ctx items =
  let moves =
    List.filter_map
      (fun (e, alias) ->
        match e with
        | Ast.Var v -> Some (`Label (alias, var_label ctx v, Hashtbl.find_opt ctx.prov v))
        | Ast.Prop (Ast.Var v, k) -> (
          match var_label ctx v with
          | Some label -> Some (`Prov (alias, label, k))
          | None -> None)
        | _ -> None)
      items
  in
  (* Projections rebind the namespace: stale inferences die with it. *)
  Hashtbl.reset ctx.labels;
  Hashtbl.reset ctx.prov;
  List.iter
    (function
      | `Label (alias, lbl, prov) ->
        (match lbl with Some l -> Hashtbl.replace ctx.labels alias l | None -> ());
        (match prov with Some p -> Hashtbl.replace ctx.prov alias p | None -> ())
      | `Prov (alias, label, k) -> Hashtbl.replace ctx.prov alias (label, k))
    moves

let limit_rows e r =
  match e with
  | Ast.Lit (Mgq_core.Value.Int n) -> fmin r (float_of_int (max 0 n))
  | _ -> fmin r 10.0

let rec annotate_op ctx (op : Plan.op) =
  let r = ctx.rows in
  let out, cost =
    match op with
    | Plan.Node_index_seek { var; label; key; value; _ } ->
      Hashtbl.replace ctx.labels var label;
      let sel = eq_rows ctx label key value in
      (* One index probe plus ~3 hits per candidate verified against
         the property store. *)
      (r *. sel, r *. (1.0 +. (3.0 *. sel)))
    | Plan.Node_label_scan { var; label } ->
      Hashtbl.replace ctx.labels var label;
      let n = raw_label_count ctx label in
      (r *. n, r *. n)
    | Plan.All_nodes_scan { var = _ } ->
      let n = raw_total_nodes ctx in
      (r *. n, r *. n)
    | Plan.Expand { src; types; dir; dst; dst_new; _ } ->
      let avg = expand_avg ctx ~src_label:(var_label ctx src) ~types ~dir in
      (match reached_label ctx ~types ~dir with
      | Some l when dst_new -> Hashtbl.replace ctx.labels dst l
      | _ -> ());
      let cost = r *. (1.0 +. avg) in
      if dst_new then (r *. avg, cost) else (r *. avg /. target_pool ctx dst, cost)
    | Plan.Var_expand { src; types; dir; rmin; rmax; dst; dst_new; _ } ->
      let avg = expand_avg ctx ~src_label:(var_label ctx src) ~types ~dir in
      (match reached_label ctx ~types ~dir with
      | Some l when dst_new -> Hashtbl.replace ctx.labels dst l
      | _ -> ());
      let out = r *. geometric avg rmin rmax in
      let cost = r *. (1.0 +. geometric avg 1 rmax) in
      if dst_new then (out, cost) else (out /. target_pool ctx dst, cost)
    | Plan.Shortest_path { src; types; rmax; _ } ->
      let avg = expand_avg ctx ~src_label:(var_label ctx src) ~types ~dir:Mgq_core.Types.Both in
      (r, r *. (1.0 +. (avg *. float_of_int rmax)))
    | Plan.Node_check { var; pat } ->
      let lbl_sel =
        match pat.Ast.nlabel with
        | None -> 1.0
        | Some l -> (
          match var_label ctx var with
          | Some known when String.equal known l -> 1.0
          | _ -> fmin 1.0 (label_count ctx l /. total_nodes ctx))
      in
      (match pat.Ast.nlabel with Some l -> Hashtbl.replace ctx.labels var l | None -> ());
      let prop_sel =
        List.fold_left (fun acc (k, e) -> acc *. eq_selectivity ctx var k e) 1.0 pat.Ast.nprops
      in
      let nprops = float_of_int (List.length pat.Ast.nprops) in
      (r *. lbl_sel *. prop_sel, r *. (1.0 +. (2.0 *. nprops)))
    | Plan.Filter e -> (r *. selectivity ctx e, r *. predicate_cost ctx e)
    | Plan.Project items ->
      let cost = r *. List.fold_left (fun a (e, _) -> a +. predicate_cost ctx e) 0.0 items in
      record_provenance ctx items;
      (r, cost)
    | Plan.Aggregate { groups; aggs } ->
      let out =
        match groups with
        | [] -> fmin r 1.0
        | gs -> fmin r (List.fold_left (fun acc (e, _) -> acc *. distinct_of ctx r e) 1.0 gs)
      in
      let key_cost = List.fold_left (fun a (e, _) -> a +. predicate_cost ctx e) 0.0 groups in
      let agg_cost =
        List.fold_left
          (fun a (_, arg, _) ->
            match arg with Some e -> a +. predicate_cost ctx e | None -> a)
          0.0 aggs
      in
      record_provenance ctx groups;
      (out, r *. (key_cost +. agg_cost))
    | Plan.Distinct -> (r, 0.0)
    | Plan.Sort items ->
      (r, r *. List.fold_left (fun a (e, _) -> a +. predicate_cost ctx e) 0.0 items)
    | Plan.Skip_op e ->
      let out =
        match e with
        | Ast.Lit (Mgq_core.Value.Int n) -> fmax 0.0 (r -. float_of_int n)
        | _ -> r *. 0.9
      in
      (out, 0.0)
    | Plan.Limit_op e -> (limit_rows e r, 0.0)
    | Plan.Unwind_op (e, _) ->
      let out =
        match e with Ast.List_lit es -> r *. float_of_int (List.length es) | _ -> r *. 10.0
      in
      (out, 0.0)
    | Plan.Create_op paths -> (r, r *. (5.0 *. float_of_int (List.length paths)))
    | Plan.Set_op items -> (r, r *. (2.0 *. float_of_int (List.length items)))
    | Plan.Delete_op _ -> (r, r *. 2.0)
    | Plan.Merge_op pat ->
      let n = match pat.Ast.nlabel with Some l -> label_count ctx l | None -> total_nodes ctx in
      (fmax r 1.0, r *. n)
    | Plan.Optional_op { ops; _ } ->
      let anns = List.map (annotate_op ctx) ops in
      let sub_cost = List.fold_left (fun a (x : ann) -> a +. x.est_cost) 0.0 anns in
      (fmax r ctx.rows, sub_cost)
  in
  ctx.rows <- fmax 0.0 out;
  { est_rows = ctx.rows; est_cost = cost }

let make_ctx db =
  { stats = Db.stats db; rows = 1.0; labels = Hashtbl.create 8; prov = Hashtbl.create 8 }

let annotate db ops =
  let ctx = make_ctx db in
  List.map (annotate_op ctx) ops

let total_cost db ops =
  let ctx = make_ctx db in
  List.fold_left (fun acc op -> acc +. (annotate_op ctx op).est_cost) 0.0 ops
