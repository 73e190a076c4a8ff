(* E4: cardinality-estimation accuracy.

   EXPLAIN ANALYZE over the whole Table-2 workload on the cost-based
   planner: every operator's estimated rows against the rows it
   actually produced, summarised as q-error (max(est/act, act/est),
   both floored at 1). The oracle asserts the median per-operator
   q-error stays at or below 2 — the usual bar for "estimates good
   enough to order plans by". *)

open Bench_support
module Cypher = Mgq_cypher.Cypher
module Workload = Mgq_queries.Workload
module Params = Mgq_queries.Params

let median sorted =
  match sorted with [] -> 1.0 | l -> List.nth l (List.length l / 2)

let run_estimator env =
  section
    "E4: estimator accuracy - EXPLAIN ANALYZE over the Table-2 workload\n\
     (per-operator q-error of the cost-based planner's row estimates)";
  Mgq_neo.Db.analyze env.neo.Contexts.db;
  let session = Cypher.create ~planner:Cypher.Cost_based env.neo.Contexts.db in
  (* A high-fanout seed keeps the actual row counts away from the
     trivial 0/1 regime where every estimate is exact. *)
  let uid =
    match List.rev (Params.users_by_two_step_fanout env.reference) with
    | (_, u) :: _ -> u
    | [] -> 0
  in
  let params =
    Workload.params { Workload.default_args with uid; uid2 = (uid + 1) mod env.scale }
  in
  let all_errors = ref [] in
  let rows =
    List.map
      (fun q ->
        let text = q.Workload.cypher_text Workload.default_args in
        let entries = Cypher.explain_analyze ~params session text in
        let errs = List.map (fun (a : Cypher.analyze_entry) -> a.Cypher.q_error) entries in
        all_errors := errs @ !all_errors;
        let sorted = List.sort compare errs in
        [
          q.Workload.id;
          string_of_int (List.length entries);
          Printf.sprintf "%.2f" (median sorted);
          Printf.sprintf "%.2f" (List.fold_left Float.max 1.0 sorted);
        ])
      Workload.all
  in
  Text_table.print
    ~aligns:[ Text_table.Left; Right; Right; Right ]
    ~header:[ "query"; "operators"; "median q-err"; "max q-err" ]
    rows;
  let sorted = List.sort compare !all_errors in
  let med = median sorted in
  Printf.printf "\noverall: %d operators, median q-error %.2f, max %.2f\n"
    (List.length sorted) med
    (List.fold_left Float.max 1.0 sorted);
  if med > 2.0 then
    record_failure "estimator median q-error %.2f exceeds 2.0 over the Table-2 workload" med
