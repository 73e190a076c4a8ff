(* S1-S2: the serving layer measured over real sockets.

   The overload experiments (O1-O3) established the shed knee in a
   discrete-event simulation; S1 reproduces it end to end — TCP
   connections, the HTTP parser, the worker pool, admission at the
   front door, the engine behind its mutex — with the open-loop socket
   load rig. The knee here is pinned by a deterministic token bucket
   (rate known in advance) rather than the AIMD latency gradient, so
   the oracles hold on noisy CI machines: past the bucket rate the
   excess is shed as 429s, goodput plateaus at the bucket rate, and
   the p99 of admitted traffic stays flat instead of collapsing.

   S2 compares connection disciplines in a closed loop: keep-alive
   (one TCP connection per client, reused) vs. reconnect-per-request
   (handshake + slow-start tax on every call). *)

open Bench_support
module App = Mgq_server.App
module Server = Mgq_server.Server
module Loadgen = Mgq_server.Loadgen
module Router = Mgq_cluster.Router
module Admission = Mgq_overload.Admission

(* One in-process server on an ephemeral port, shared by a whole
   experiment. The token-bucket knee: requests/s admitted at the
   door; concurrency AIMD is parked high so the bucket is the binding
   constraint. *)
let with_server ?(knee = 0.) f =
  let dataset =
    Mgq_twitter.Generator.generate (Mgq_twitter.Generator.scaled ~n_users:300 ())
  in
  let admission =
    if knee <= 0. then None
    else
      Some
        {
          Admission.default_config with
          Admission.rate_per_s = knee;
          burst = knee /. 10.;
          initial_limit = 256.;
          max_limit = 256.;
        }
  in
  let app =
    App.create
      ~config:{ App.replicas = 1; policy = Router.Round_robin; admission; seed = 42 }
      dataset
  in
  let server =
    Server.serve
      ~config:{ Server.default_config with Server.workers = 8 }
      ~handler:(App.handle app) ()
  in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f (Server.port server))

let loadgen_config ~port ~rate ~duration_ns =
  {
    Loadgen.default_config with
    Loadgen.port;
    rate_per_s = rate;
    duration_ns;
    connections = 8;
    uids = Array.init 100 (fun i -> i);
  }

(* ------------------------------------------------------------------ *)
(* S1: goodput / latency vs offered rate through the socket            *)
(* ------------------------------------------------------------------ *)

let run_s1 () =
  section "S1: open-loop socket load - the shed knee end to end";
  let knee = 400. in
  let duration_ns = if !smoke then 400_000_000 else 1_500_000_000 in
  let rates =
    if !smoke then [ 0.25 *. knee; 2. *. knee ]
    else [ 0.25 *. knee; 0.5 *. knee; knee; 1.5 *. knee; 2. *. knee ]
  in
  let reports =
    with_server ~knee (fun port ->
        List.map
          (fun rate -> Loadgen.run (loadgen_config ~port ~rate ~duration_ns))
          rates)
  in
  table ~name:"s1_socket_shed_knee"
    ~header:
      [ "offered/s"; "arrivals"; "ok"; "429"; "errors"; "goodput/s"; "p50 ms"; "p99 ms" ]
    (List.map
       (fun (r : Loadgen.report) ->
         [
           fmt_rate r.Loadgen.offered_per_s;
           string_of_int r.Loadgen.arrivals;
           string_of_int r.Loadgen.ok;
           string_of_int r.Loadgen.rejected;
           string_of_int r.Loadgen.errors;
           fmt_rate r.Loadgen.goodput_per_s;
           fmt_ms_of_ns r.Loadgen.p50_ns;
           fmt_ms_of_ns r.Loadgen.p99_ns;
         ])
       reports);
  let base = List.hd reports in
  let twice = List.nth reports (List.length reports - 1) in
  let peak =
    List.fold_left
      (fun best (r : Loadgen.report) -> Float.max best r.Loadgen.goodput_per_s)
      0. reports
  in
  announce "knee %.0f req/s; at 2x: goodput %.0f/s, p99 %s ms, %d shed (Retry-After >= %d s)\n"
    knee twice.Loadgen.goodput_per_s
    (fmt_ms_of_ns twice.Loadgen.p99_ns)
    twice.Loadgen.rejected twice.Loadgen.min_retry_after_s;
  (* The same three oracles as the simulated knee (O1), now measured
     through the socket: shedding engages past the knee, goodput
     holds, and admitted traffic stays fast. *)
  if twice.Loadgen.rejected = 0 then
    record_failure "S1: no 429s at 2x the admission rate - socket admission inert";
  if twice.Loadgen.rejected > 0 && twice.Loadgen.min_retry_after_s < 1 then
    record_failure "S1: a 429 carried Retry-After < 1 s (got %d)"
      twice.Loadgen.min_retry_after_s;
  if twice.Loadgen.goodput_per_s < 0.8 *. peak then
    record_failure "S1: goodput at 2x knee (%.0f/s) below 80%% of peak (%.0f/s)"
      twice.Loadgen.goodput_per_s peak;
  (* Unsaturated p99 on loopback is sub-millisecond, so a bare 3x
     ratio is an absolute bound of ~3 ms — thin enough for scheduler
     jitter to blow on a busy CI machine. Collapse (the failure this
     oracle exists to catch) means queueing delay of hundreds of ms,
     so the ratio gets a 25 ms absolute floor. *)
  let p99_bound = max (3 * max 1 base.Loadgen.p99_ns) 25_000_000 in
  if twice.Loadgen.p99_ns > p99_bound then
    record_failure "S1: p99 at 2x knee (%s ms) above bound (%s ms; 3x unsaturated %s ms)"
      (fmt_ms_of_ns twice.Loadgen.p99_ns)
      (fmt_ms_of_ns p99_bound)
      (fmt_ms_of_ns base.Loadgen.p99_ns);
  if base.Loadgen.errors > 0 || twice.Loadgen.errors > 0 then
    record_failure "S1: transport errors during the sweep (%d base, %d at 2x)"
      base.Loadgen.errors twice.Loadgen.errors

(* ------------------------------------------------------------------ *)
(* S2: keep-alive vs reconnect-per-request                             *)
(* ------------------------------------------------------------------ *)

let run_s2 () =
  section "S2: closed-loop connection discipline - keep-alive vs reconnect";
  let duration_ns = if !smoke then 300_000_000 else 1_000_000_000 in
  let run_mode port keep_alive =
    Loadgen.run
      {
        (loadgen_config ~port ~rate:0. ~duration_ns) with
        Loadgen.mode = Loadgen.Closed;
        rate_per_s = 1.;  (* unused in closed mode; must be positive-safe *)
        connections = 4;
        keep_alive;
      }
  in
  let ka, rc = with_server (fun port -> (run_mode port true, run_mode port false)) in
  table ~name:"s2_keepalive_vs_reconnect"
    ~header:[ "discipline"; "requests"; "ok"; "errors"; "req/s"; "p50 ms"; "p99 ms" ]
    (List.map
       (fun (label, (r : Loadgen.report)) ->
         [
           label;
           string_of_int r.Loadgen.sent;
           string_of_int r.Loadgen.ok;
           string_of_int r.Loadgen.errors;
           fmt_rate r.Loadgen.offered_per_s;
           fmt_ms_of_ns r.Loadgen.p50_ns;
           fmt_ms_of_ns r.Loadgen.p99_ns;
         ])
       [ ("keep-alive", ka); ("reconnect", rc) ]);
  announce "keep-alive %.0f req/s vs reconnect %.0f req/s (%+.0f%%)\n"
    ka.Loadgen.offered_per_s rc.Loadgen.offered_per_s
    (100.
    *. ((ka.Loadgen.offered_per_s /. Float.max 1. rc.Loadgen.offered_per_s) -. 1.));
  (* Closed-loop disciplines on loopback are noise-prone; the oracles
     pin correctness, not the margin: both disciplines complete real
     traffic without transport errors. *)
  List.iter
    (fun (label, (r : Loadgen.report)) ->
      if r.Loadgen.ok = 0 then record_failure "S2: %s served no requests" label;
      if r.Loadgen.errors > 0 then
        record_failure "S2: %s hit %d transport errors" label r.Loadgen.errors)
    [ ("keep-alive", ka); ("reconnect", rc) ]

let run_serving () =
  run_s1 ();
  run_s2 ();
  export_metrics "serving_metrics"
