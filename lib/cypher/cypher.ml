module Db = Mgq_neo.Db
module Cost_model = Mgq_storage.Cost_model
module Sim_disk = Mgq_storage.Sim_disk
module Obs = Mgq_obs.Obs

let m_cache_hit = Obs.counter "cypher.plan_cache" ~labels:[ ("result", "hit") ]
let m_cache_miss = Obs.counter "cypher.plan_cache" ~labels:[ ("result", "miss") ]
let m_cache_stale = Obs.counter "cypher.plan_cache" ~labels:[ ("result", "stale") ]
let m_queries = Obs.counter "cypher.queries"

type planner = Heuristic | Cost_based

type cached_plan = {
  plan : Plan.t;
  program : Executor.compiled;
  profile_requested : bool;
  explain : Ast.explain_mode;
  epoch : int;  (** stats epoch the plan was compiled against *)
}

type t = {
  db : Db.t;
  planner : planner;
  cache : (string, cached_plan) Hashtbl.t;
  mutable compilations : int;
}

type query_stats = { compiled : bool; parse_plan_ms : float }

type result = {
  columns : string list;
  rows : Runtime.item list list;
  profile : Executor.profile_entry list option;
  stats : query_stats;
  updates : Executor.update_counts;
}

exception Query_error of string

let create ?(planner = Cost_based) db =
  { db; planner; cache = Hashtbl.create 64; compilations = 0 }

let compile_cost_ns = 1_500_000

let db t = t.db

let compile_fresh t text =
  let (cached, ms) =
    let work () =
      let ast =
        try Parser.parse text
        with Parser.Parse_error msg -> raise (Query_error ("syntax error: " ^ msg))
      in
      let plan =
        try
          match t.planner with
          | Heuristic -> Plan.plan t.db ast
          | Cost_based -> Planner.plan t.db ast
        with Plan.Plan_error msg -> raise (Query_error ("planning error: " ^ msg))
      in
      {
        plan;
        program = Executor.compile plan;
        profile_requested = ast.Ast.profile;
        explain = ast.Ast.explain;
        epoch = Db.stats_epoch t.db;
      }
    in
    Mgq_util.Stats.Timing.time_ms work
  in
  (* Model the compilation cost the paper attributes to re-compiling
     unparameterised queries. *)
  Cost_model.advance_ns (Sim_disk.cost (Db.disk t.db)) compile_cost_ns;
  t.compilations <- t.compilations + 1;
  Hashtbl.replace t.cache text cached;
  (cached, { compiled = true; parse_plan_ms = ms })

let compile t text =
  match Hashtbl.find_opt t.cache text with
  | Some cached when cached.epoch = Db.stats_epoch t.db ->
    Obs.Counter.incr m_cache_hit;
    (cached, { compiled = false; parse_plan_ms = 0. })
  | Some _ ->
    (* The statistics epoch moved (ANALYZE ran, or an index was
       created or dropped): the cached plan may no longer be the
       cheapest — or even valid — so recompile against fresh stats. *)
    Obs.Counter.incr m_cache_stale;
    compile_fresh t text
  | None ->
    Obs.Counter.incr m_cache_miss;
    compile_fresh t text

(* ------------------------------------------------------------------ *)
(* EXPLAIN / EXPLAIN ANALYZE                                           *)
(* ------------------------------------------------------------------ *)

type analyze_entry = {
  op : string;
  detail : string;
  est_rows : float;
  act_rows : int;
  est_cost : float;
  act_hits : int;
  q_error : float;
}

let q_error ~est ~actual =
  let e = Float.max est 1.0 and a = Float.max (float_of_int actual) 1.0 in
  Float.max (e /. a) (a /. e)

(* EXPLAIN rendering: one line per operator, name at column 0 (the
   same layout as {!Plan.to_string}) plus estimated rows and cost. *)
let explain_lines db (plan : Plan.t) =
  let anns = Estimate.annotate db plan.Plan.ops in
  let header = Printf.sprintf "%-18s %-44s %12s %12s" "Operator" "Detail" "EstRows" "EstCost" in
  header
  :: List.map2
       (fun op (ann : Estimate.ann) ->
         Printf.sprintf "%-18s %-44s %12.1f %12.1f" (Plan.op_name op) (Plan.op_detail op)
           ann.Estimate.est_rows ann.Estimate.est_cost)
       plan.Plan.ops anns

let analyze_entries db (plan : Plan.t) (entries : Executor.profile_entry list) =
  let anns = Estimate.annotate db plan.Plan.ops in
  List.map2
    (fun (ann : Estimate.ann) (e : Executor.profile_entry) ->
      {
        op = e.Executor.name;
        detail = e.Executor.detail;
        est_rows = ann.Estimate.est_rows;
        act_rows = e.Executor.rows;
        est_cost = ann.Estimate.est_cost;
        act_hits = e.Executor.db_hits;
        q_error = q_error ~est:ann.Estimate.est_rows ~actual:e.Executor.rows;
      })
    anns entries

let analyze_lines entries =
  let header =
    Printf.sprintf "%-18s %-38s %10s %8s %10s %8s %7s" "Operator" "Detail" "EstRows" "Rows"
      "EstCost" "DbHits" "Q-err"
  in
  header
  :: List.map
       (fun a ->
         Printf.sprintf "%-18s %-38s %10.1f %8d %10.1f %8d %7.2f" a.op a.detail a.est_rows
           a.act_rows a.est_cost a.act_hits a.q_error)
       entries

let string_rows lines =
  List.map (fun l -> [ Runtime.Ival (Mgq_core.Value.Str l) ]) lines

(* ------------------------------------------------------------------ *)

let execute_cached ?budget ~params t cached ~profile =
  let execute () = Executor.run ?budget t.db ~params ~profile cached.program in
  try
    (* Writes run transactionally so a failing statement leaves the
       store untouched. *)
    if Plan.has_writes cached.plan then Db.with_tx t.db execute else execute ()
  with
  | Executor.Exec_error msg -> raise (Query_error ("execution error: " ^ msg))
  | Runtime.Eval_error msg -> raise (Query_error ("evaluation error: " ^ msg))

let run ?(params = []) ?budget t text =
  Obs.Counter.incr m_queries;
  Obs.Trace.with_span "cypher.query" @@ fun () ->
  let cached, stats = compile t text in
  Obs.Trace.note "plan_cache" (if stats.compiled then "miss" else "hit");
  match cached.explain with
  | Ast.Explain_none ->
    let result = execute_cached ?budget ~params t cached ~profile:cached.profile_requested in
    {
      columns = result.Executor.columns;
      rows = result.Executor.rows;
      profile = result.Executor.profile;
      stats;
      updates = result.Executor.updates;
    }
  | Ast.Explain_plan ->
    {
      columns = [ "plan" ];
      rows = string_rows (explain_lines t.db cached.plan);
      profile = None;
      stats;
      updates = Executor.no_updates;
    }
  | Ast.Explain_analyze ->
    let result = execute_cached ?budget ~params t cached ~profile:true in
    let entries =
      match result.Executor.profile with
      | Some p -> analyze_entries t.db cached.plan p
      | None -> []
    in
    {
      columns = [ "plan" ];
      rows = string_rows (analyze_lines entries);
      profile = result.Executor.profile;
      stats;
      updates = result.Executor.updates;
    }

let explain ?params t text =
  ignore params;
  let cached, _stats = compile t text in
  Plan.to_string cached.plan

let explain_estimated ?params t text =
  ignore params;
  let cached, _stats = compile t text in
  String.concat "\n" (explain_lines t.db cached.plan)

let explain_analyze ?(params = []) t text =
  let cached, _stats = compile t text in
  let result = execute_cached ~params t cached ~profile:true in
  match result.Executor.profile with
  | Some p -> analyze_entries t.db cached.plan p
  | None -> []

let plan_of t text =
  let cached, _stats = compile t text in
  cached.plan

let compilations t = t.compilations
let cache_size t = Hashtbl.length t.cache

let value_rows result =
  List.map (List.map Runtime.item_to_value) result.rows

let to_string result =
  let render_item item =
    match item with
    | Runtime.Ival v -> Mgq_core.Value.to_display v
    | Runtime.Inode n -> Printf.sprintf "(node %d)" n
    | Runtime.Iedge e -> Printf.sprintf "[rel %d]" e
    | Runtime.Ipath p -> Printf.sprintf "<path length %d>" (List.length p - 1)
    | Runtime.Ilist items -> Printf.sprintf "[%d items]" (List.length items)
  in
  let body =
    Mgq_util.Text_table.render ~header:result.columns
      (List.map (List.map render_item) result.rows)
  in
  match result.profile with
  | None -> body
  | Some entries -> body ^ "\n" ^ Executor.profile_to_string entries
