(* N1-N2: chaos engineering over the serving stack.

   N1 isolates the slow-client defence: slowloris attackers dripping
   one header byte per 40 ms against a server with tight per-request
   deadlines, while a well-behaved closed-loop client measures latency
   through the attack. The oracles: every attacker is evicted with a
   typed 408, and the well-behaved p99 stays within 3x the unsaturated
   baseline (25 ms absolute floor — same CI-noise guard as S1).

   N2 runs the full composed campaign — seeded network faults, a
   primary torn-write crash with failover, slowloris attackers, and a
   resilient retrying client — and routes the campaign's own five
   verdicts into the bench oracles, so a regression anywhere in the
   stack fails the harness, not just `mgq chaos`. *)

open Bench_support
module App = Mgq_server.App
module Server = Mgq_server.Server
module Loadgen = Mgq_server.Loadgen
module Chaos = Mgq_server.Chaos
module Router = Mgq_cluster.Router

(* ------------------------------------------------------------------ *)
(* N1: slowloris attackers vs per-request deadlines                    *)
(* ------------------------------------------------------------------ *)

let run_n1 () =
  section "N1: slow-client defence - slowloris vs per-request deadlines";
  let dataset =
    Mgq_twitter.Generator.generate (Mgq_twitter.Generator.scaled ~n_users:300 ())
  in
  let app =
    App.create
      ~config:{ App.replicas = 1; policy = Router.Round_robin; admission = None; seed = 42 }
      dataset
  in
  let server =
    Server.serve
      ~config:
        {
          Server.default_config with
          Server.workers = 8;
          header_deadline_s = 0.3;
          body_deadline_s = 0.6;
        }
      ~handler:(App.handle app) ()
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let port = Server.port server in
      let duration_ns = if !smoke then 400_000_000 else 1_000_000_000 in
      let measure () =
        Loadgen.run
          {
            Loadgen.default_config with
            Loadgen.port;
            mode = Loadgen.Closed;
            rate_per_s = 1.;
            duration_ns;
            connections = 4;
            uids = Array.init 100 (fun i -> i);
          }
      in
      let quiet = measure () in
      let attackers = if !smoke then 2 else 4 in
      let results = Array.make attackers `Still_connected in
      let threads =
        List.init attackers (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  Chaos.slowloris ~host:"127.0.0.1" ~port ~gap_s:0.04
                    ~give_up_s:(2. +. (float_of_int duration_ns /. 1e9)))
              ())
      in
      Thread.delay 0.05;
      let under_attack = measure () in
      List.iter Thread.join threads;
      let evicted =
        Array.fold_left (fun n r -> if r = `Evicted_408 then n + 1 else n) 0 results
      in
      table ~name:"n1_slowloris_defence"
        ~header:[ "condition"; "requests"; "ok"; "errors"; "p50 ms"; "p99 ms" ]
        (List.map
           (fun (label, (r : Loadgen.report)) ->
             [
               label;
               string_of_int r.Loadgen.sent;
               string_of_int r.Loadgen.ok;
               string_of_int r.Loadgen.errors;
               fmt_ms_of_ns r.Loadgen.p50_ns;
               fmt_ms_of_ns r.Loadgen.p99_ns;
             ])
           [ ("quiet", quiet); ("under attack", under_attack) ]);
      announce "%d/%d attackers evicted with 408; well-behaved p99 %s ms quiet -> %s ms under attack\n"
        evicted attackers
        (fmt_ms_of_ns quiet.Loadgen.p99_ns)
        (fmt_ms_of_ns under_attack.Loadgen.p99_ns);
      if evicted < attackers then
        record_failure "N1: only %d/%d slowloris attackers evicted with a 408" evicted
          attackers;
      let p99_bound = max (3 * max 1 quiet.Loadgen.p99_ns) 25_000_000 in
      if under_attack.Loadgen.p99_ns > p99_bound then
        record_failure "N1: p99 under attack (%s ms) above bound (%s ms; 3x quiet %s ms)"
          (fmt_ms_of_ns under_attack.Loadgen.p99_ns)
          (fmt_ms_of_ns p99_bound)
          (fmt_ms_of_ns quiet.Loadgen.p99_ns);
      if quiet.Loadgen.errors > 0 || under_attack.Loadgen.errors > 0 then
        record_failure "N1: transport errors on the well-behaved client (%d quiet, %d attacked)"
          quiet.Loadgen.errors under_attack.Loadgen.errors)

(* ------------------------------------------------------------------ *)
(* N2: the composed chaos campaign                                     *)
(* ------------------------------------------------------------------ *)

let run_n2 () =
  section "N2: composed chaos campaign - disk + failover + net faults under load";
  let config =
    if !smoke then Chaos.smoke_config else { Chaos.default_config with Chaos.seed = 42 }
  in
  let report = Chaos.run config in
  List.iter (fun line -> Printf.printf "  %s\n" line) report.Chaos.lines;
  List.iter (fun line -> Printf.printf "  %s\n" line) report.Chaos.measurements;
  table ~name:"n2_chaos_oracles" ~header:[ "oracle"; "verdict"; "detail" ]
    (List.map
       (fun (v : Mgq_util.Verdict.t) ->
         [ v.name; (if v.passed then "PASS" else "FAIL"); v.detail ])
       report.Chaos.verdicts);
  check_verdicts "N2" report.Chaos.verdicts

let run_chaos () =
  run_n1 ();
  run_n2 ();
  export_metrics "chaos_metrics"
