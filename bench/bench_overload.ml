(* O1-O3: overload protection experiments.

   Nothing here comes from the paper (the 2015 study measured isolated
   query latencies); these measure the overload-protection layer that
   keeps those latencies meaningful under load: where the admission
   controller's shed knee sits relative to saturation (O1), how the
   per-replica circuit breakers isolate and then reintegrate a failing
   replica (O2), and what answer quality a deadline buys from the
   degraded query modes (O3). The load-bearing oracles — bounded p99
   and retained goodput past saturation, zero requests served by an
   open breaker, exact answers once the deadline affords the full
   traversal — are asserted via [record_failure], so a regression
   fails the harness rather than decorating a table. *)

open Bench_support
module Cluster = Mgq_cluster.Cluster
module Replica = Mgq_cluster.Replica
module Router = Mgq_cluster.Router
module Breaker = Mgq_overload.Breaker
module Admission = Mgq_overload.Admission
module Sim_load = Mgq_overload.Sim_load
module Guard = Mgq_overload.Guard
module Q_neo_api = Mgq_queries.Q_neo_api
module Rng = Mgq_util.Rng
module Budget = Mgq_util.Budget
module Value = Mgq_core.Value
module Property = Mgq_core.Property

let props l = Property.of_list l
let fmt_pct x = Printf.sprintf "%.1f%%" (100. *. x)

(* ------------------------------------------------------------------ *)
(* O1: goodput vs offered load - the shed knee                         *)
(* ------------------------------------------------------------------ *)

let run_o1 () =
  section "O1: goodput vs offered load (open-loop, 4 workers, 50 ms SLO)";
  let duration_ns = if !smoke then 300_000_000 else 2_000_000_000 in
  let rates =
    if !smoke then [ 500.; 2_000.; 4_000.; 8_000. ]
    else [ 500.; 1_000.; 2_000.; 3_000.; 4_000.; 5_000.; 6_000.; 8_000. ]
  in
  let config rate admission =
    {
      Sim_load.default_config with
      Sim_load.rate_per_s = rate;
      duration_ns;
      admission = (if admission then Some Admission.default_config else None);
    }
  in
  let runs =
    List.map (fun r -> (Sim_load.run (config r true), Sim_load.run (config r false))) rates
  in
  table ~name:"o1_goodput_vs_load"
    ~header:
      [
        "offered/s";
        "goodput/s";
        "p99 ms";
        "shed";
        "shed exp";
        "limit";
        "goodput/s (off)";
        "p99 ms (off)";
        "queue (off)";
      ]
    (List.map
       (fun (a, n) ->
         [
           fmt_rate a.Sim_load.offered_per_s;
           fmt_rate a.Sim_load.goodput_per_s;
           fmt_ms_of_ns a.Sim_load.p99_ns;
           fmt_pct
             (float_of_int (Sim_load.shed_total a)
             /. float_of_int (max 1 a.Sim_load.arrivals));
           string_of_int a.Sim_load.shed_expensive;
           Printf.sprintf "%.1f" a.Sim_load.final_limit;
           fmt_rate n.Sim_load.goodput_per_s;
           fmt_ms_of_ns n.Sim_load.p99_ns;
           string_of_int n.Sim_load.max_queue;
         ])
       runs);
  (* The measured saturation point: the offered rate with peak
     admitted goodput. *)
  let peak, _ =
    List.fold_left
      (fun ((_, best) as acc) (a, _) ->
        if a.Sim_load.goodput_per_s > best then (a, a.Sim_load.goodput_per_s) else acc)
      (fst (List.hd runs), (fst (List.hd runs)).Sim_load.goodput_per_s)
      runs
  in
  let base = fst (List.hd runs) in
  let twice = Sim_load.run (config (2. *. peak.Sim_load.offered_per_s) true) in
  announce "saturation ~%.0f req/s (peak goodput %.0f/s); at 2x: goodput %.0f/s, p99 %s ms\n"
    peak.Sim_load.offered_per_s peak.Sim_load.goodput_per_s twice.Sim_load.goodput_per_s
    (fmt_ms_of_ns twice.Sim_load.p99_ns);
  (* Oracle: past saturation the admitted traffic stays fast and
     goodput holds - load shedding, not collapse. *)
  if twice.Sim_load.p99_ns > 3 * base.Sim_load.p99_ns then
    record_failure "O1: p99 at 2x saturation (%s ms) above 3x unsaturated p99 (%s ms)"
      (fmt_ms_of_ns twice.Sim_load.p99_ns)
      (fmt_ms_of_ns base.Sim_load.p99_ns);
  if twice.Sim_load.goodput_per_s < 0.8 *. peak.Sim_load.goodput_per_s then
    record_failure "O1: goodput at 2x saturation (%.0f/s) below 80%% of peak (%.0f/s)"
      twice.Sim_load.goodput_per_s peak.Sim_load.goodput_per_s;
  if Sim_load.shed_total twice = 0 then
    record_failure "O1: no shedding at 2x saturation - admission control inert"

(* ------------------------------------------------------------------ *)
(* O2: circuit breakers under a failing replica                        *)
(* ------------------------------------------------------------------ *)

let run_o2 () =
  section "O2: circuit breaker isolates and reintegrates a failing replica";
  let reads = if !smoke then 90 else 300 in
  let fault_from = reads / 10 and fault_until = reads / 2 in
  let config =
    {
      Cluster.default_config with
      Cluster.replicas = 3;
      lag = Replica.Immediate;
      policy = Router.Round_robin;
      seed = 42;
    }
  in
  let cluster = Cluster.create ~config () in
  let guard =
    Guard.create
      ~breaker_config:
        { Breaker.failure_threshold = 3; open_for = 5; probe_successes = 2; probe_p = 1.0 }
      cluster (Rng.create 7)
  in
  let s = Cluster.session cluster 0 in
  Cluster.write cluster ~session:s (fun db ->
      ignore (Db.create_node db ~label:"user" (props [ ("k", Value.Int 1) ])));
  let head = Cluster.head_lsn cluster in
  let step = ref 0 in
  Guard.set_fault guard (fun ~replica ~now:_ ->
      replica = 0 && !step >= fault_from && !step < fault_until);
  let wrong = ref 0 in
  let snap label =
    let b0 = Guard.breaker guard 0 in
    [
      label;
      Breaker.state_to_string (Breaker.state b0 ~now:(Cluster.now cluster));
      string_of_int (Router.ejections (Cluster.router cluster));
      string_of_int (Router.restores (Cluster.router cluster));
      string_of_int (Guard.rerouted guard);
      string_of_int (Guard.probes guard);
      string_of_int (Guard.served_while_open guard);
    ]
  in
  let rows = ref [] in
  let phase_end = [ (fault_from - 1, "healthy"); (fault_until - 1, "fault window") ] in
  for i = 0 to reads - 1 do
    step := i;
    if Guard.read guard ~session:s Db.last_lsn <> head then incr wrong;
    Cluster.tick cluster;
    match List.assoc_opt i phase_end with
    | Some label -> rows := snap label :: !rows
    | None -> ()
  done;
  rows := snap "recovered" :: !rows;
  table ~name:"o2_breaker_phases"
    ~header:[ "phase"; "breaker 0"; "ejections"; "restores"; "rerouted"; "probes"; "open-served" ]
    (List.rev !rows);
  (* Oracles: no request is ever served by an open breaker; the
     failing replica is ejected, then reintegrated once healthy. *)
  if Guard.served_while_open guard <> 0 then
    record_failure "O2: %d request(s) served while the breaker was open"
      (Guard.served_while_open guard);
  if Router.ejections (Cluster.router cluster) < 1 then
    record_failure "O2: failing replica was never ejected from rotation";
  if Breaker.state (Guard.breaker guard 0) ~now:(Cluster.now cluster) <> Breaker.Closed then
    record_failure "O2: breaker did not re-close after the fault cleared (state %s)"
      (Breaker.state_to_string
         (Breaker.state (Guard.breaker guard 0) ~now:(Cluster.now cluster)));
  if Router.restores (Cluster.router cluster) < 1 then
    record_failure "O2: recovered replica was never restored to rotation";
  if !wrong > 0 then record_failure "O2: %d read(s) returned the wrong answer" !wrong

(* ------------------------------------------------------------------ *)
(* O3: degraded answer quality vs deadline                             *)
(* ------------------------------------------------------------------ *)

(* Top-n id overlap between a (possibly degraded) answer and the full
   one - the quality a given deadline buys. *)
let overlap ~n full result =
  let ids = function
    | Results.Counted pairs -> List.map fst (Results.take n pairs)
    | r -> failwith ("O3: unexpected result shape " ^ Results.to_string r)
  in
  let f = ids full and d = ids (Results.strip_degraded result) in
  if f = [] then 1.0
  else
    float_of_int (List.length (List.filter (fun id -> List.mem id f) d))
    /. float_of_int (List.length f)

let run_o3_query name full_of within_of env =
  let neo = env.neo in
  (* the busiest of the first 100 users: a frontier worth degrading *)
  let uid =
    fst
      (List.fold_left
         (fun ((_, best) as acc) uid ->
           let c = Results.cardinality (full_of neo ~uid) in
           if c > best then (uid, c) else acc)
         (0, -1)
         (List.init (min 100 env.scale) Fun.id))
  in
  let full = full_of neo ~uid in
  let m = measure (neo_cost env) (fun () -> full_of neo ~uid) in
  let full_ns = int_of_float (m.sim_ms *. 1e6) in
  let fractions = [ 0.01; 0.05; 0.25; 1.0; 10.0 ] in
  let rows =
    List.map
      (fun frac ->
        let deadline_ns = max 1_000 (int_of_float (frac *. float_of_int full_ns)) in
        let deadline = Budget.create ~max_ns:deadline_ns () in
        let r = within_of neo ~uid ~deadline in
        let frontier, total =
          match r with
          | Results.Degraded { frontier; frontier_total; _ } -> (frontier, frontier_total)
          | _ -> (-1, -1)
        in
        (frac, deadline_ns, r, frontier, total))
      fractions
  in
  table
    ~name:(Printf.sprintf "o3_%s_quality" name)
    ~header:[ "query"; "deadline"; "of full cost"; "frontier"; "overlap@10" ]
    (List.map
       (fun (frac, deadline_ns, r, frontier, total) ->
         [
           name;
           fmt_ms_of_ns deadline_ns ^ " ms";
           fmt_pct frac;
           (if frontier >= 0 then Printf.sprintf "%d/%d" frontier total else "full");
           fmt_pct (overlap ~n:10 full r);
         ])
       rows);
  (* Oracle: a deadline that affords the full traversal returns the
     exact full answer, undegraded. *)
  let _, _, generous, _, _ = List.nth rows (List.length rows - 1) in
  (match generous with
  | Results.Degraded _ ->
    record_failure "O3 %s: degraded even though the deadline affords the full traversal" name
  | r ->
    if not (Results.equal r full) then
      record_failure "O3 %s: generous-deadline answer differs from the full answer" name);
  (* Oracle: the tightest deadline still answers (degraded, sampled
     frontier), rather than failing or blowing through. *)
  let _, tight_ns, tight, frontier, total = List.hd rows in
  match tight with
  | Results.Degraded _ ->
    if frontier > total then
      record_failure "O3 %s: sampled frontier %d larger than the total %d" name frontier total
  | _ ->
    if tight_ns >= full_ns then ()
    else
      record_failure "O3 %s: tight deadline (%s ms of %s ms) did not degrade" name
        (fmt_ms_of_ns tight_ns) (fmt_ms_of_ns full_ns)

let run_o3 env =
  section "O3: degraded answer quality vs deadline (frontier sampling)";
  run_o3_query "q4.1"
    (fun neo ~uid -> Q_neo_api.q4_1 neo ~uid ~n:10)
    (fun neo ~uid ~deadline -> Q_neo_api.q4_1_within ~seed:42 ~deadline neo ~uid ~n:10)
    env;
  run_o3_query "q5.1"
    (fun neo ~uid -> Q_neo_api.q5_1 neo ~uid ~n:10)
    (fun neo ~uid ~deadline -> Q_neo_api.q5_1_within ~seed:42 ~deadline neo ~uid ~n:10)
    env

let run_overload env =
  run_o1 ();
  run_o2 ();
  run_o3 env
