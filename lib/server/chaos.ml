(* The chaos campaign: every fault layer the repo owns, composed and
   pointed at one live serving stack.

     disk faults   -> a primary armed to tear a page write and die
     cluster       -> failover to the healthiest replica, mid-load
     network       -> Sim_net resets / delayed first bytes on clients,
                      hand-rolled slowloris attackers on raw sockets
     load          -> the open-loop rig with the resilient retry client

   Three phases — baseline (clean), fault (everything at once),
   recovery (clean again) — and then the oracles:

     no-acked-write-lost   the consistency-audit register check: after
                           failover no acknowledged write is missing
                           and the register reads as the last acked
                           value or the one un-acked in-flight write
     workers-drained       Server.stop returned and no worker still
                           holds a connection (leak check)
     typed-outcomes        every scheduled request resolved to exactly
                           one typed outcome (ok/429/reset/timeout/
                           error) — nothing vanished
     goodput-recovered     recovery goodput >= 90% of baseline
     slow-clients-evicted  every slowloris attacker was thrown out
                           with a typed 408 (conn_outcome{timeout})

   Determinism contract: [report.lines] is a pure function of the
   config — the echoed parameters, the seed-derived fault schedule,
   and PASS/FAIL verdicts — so two runs with one seed diff clean.
   Anything wall-clock-shaped (goodput numbers, latencies, injection
   counts) lives in [report.measurements], excluded from that
   comparison. *)

module App = App
module Server = Server
module Loadgen = Loadgen
module Obs = Mgq_obs.Obs
module Rng = Mgq_util.Rng
module Retry = Mgq_util.Retry
module Db = Mgq_neo.Db
module Cluster = Mgq_cluster.Cluster
module Router = Mgq_cluster.Router
module Fault = Mgq_storage.Fault
module Property = Mgq_core.Property
module Value = Mgq_core.Value

type config = {
  seed : int;
  users : int;  (* dataset scale *)
  replicas : int;
  workers : int;
  connections : int;
  rate_per_s : float;
  slo_ns : int;
  baseline_ms : int;
  fault_ms : int;
  recovery_ms : int;
  attackers : int;  (* concurrent slowloris clients during the fault phase *)
  attacker_gap_ms : int;  (* one byte per this interval *)
  reset_send_p : float;  (* client-side injected request resets *)
  reset_recv_p : float;  (* client-side injected response resets *)
  first_byte_delay_ms : int;
  header_deadline_s : float;  (* server eviction clock, tightened for the run *)
  body_deadline_s : float;
  writes : int;  (* acked register writes attempted during the fault phase *)
  failover : bool;  (* arm the disk crash + promote *)
}

let default_config =
  {
    seed = 42;
    users = 300;
    replicas = 2;
    workers = 8;
    connections = 8;
    rate_per_s = 150.;
    slo_ns = 50_000_000;
    baseline_ms = 1_000;
    fault_ms = 2_000;
    recovery_ms = 1_000;
    attackers = 3;
    attacker_gap_ms = 40;
    reset_send_p = 0.02;
    reset_recv_p = 0.02;
    first_byte_delay_ms = 5;
    header_deadline_s = 0.4;
    body_deadline_s = 0.8;
    writes = 30;
    failover = true;
  }

let smoke_config =
  {
    default_config with
    users = 120;
    rate_per_s = 120.;
    baseline_ms = 400;
    fault_ms = 900;
    recovery_ms = 400;
    writes = 20;
  }

module Verdict = Mgq_util.Verdict

type report = {
  verdicts : Verdict.t list;
  lines : string list;  (* deterministic: config + schedule + verdicts *)
  measurements : string list;  (* wall-clock-shaped diagnostics *)
}

let now_ns () = Int64.to_int (Mgq_util.Stats.Timing.now_ns ())

(* ------------------------------------------------------------------ *)
(* the slowloris attacker                                             *)
(* ------------------------------------------------------------------ *)

(* A hostile client on a raw socket: dribbles a never-ending header
   one byte at a time, polling for the server's answer between bytes
   (a client still blind-writing when the server closes gets an RST
   that discards the buffered 408 — polling is what lets it witness
   the eviction). Returns how the exchange ended. *)
let slowloris ~host ~port ~gap_s ~give_up_s =
  let addr = Unix.inet_addr_of_string host in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let finish outcome =
    (try Unix.close fd with _ -> ());
    outcome
  in
  try
    Unix.connect fd (Unix.ADDR_INET (addr, port));
    let payload = "GET / HTTP/1.1\r\nX-Drip: " in
    let deadline = now_ns () + int_of_float (give_up_s *. 1e9) in
    let buf = Bytes.create 4096 in
    let i = ref 0 in
    let result = ref None in
    (* Poll [timeout] seconds for the server's answer; [silent] is the
       outcome when none arrives. *)
    let poll timeout ~silent =
      match Unix.select [ fd ] [] [] timeout with
      | [ _ ], _, _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> result := Some `Closed
        | n ->
          let s = Bytes.sub_string buf 0 n in
          result :=
            Some
              (if String.length s >= 12 && String.sub s 9 3 = "408" then `Evicted_408
               else `Other_response)
        | exception Unix.Unix_error _ -> result := Some `Reset)
      | _ -> result := silent
    in
    while !result = None && now_ns () < deadline do
      (* Answer ready? The 408 arrives while we are mid-drip. *)
      poll gap_s ~silent:None;
      if !result = None then begin
        let c = payload.[!i mod String.length payload] in
        (* Never complete the header section: skip the terminator. *)
        let c = if c = '\r' || c = '\n' then 'x' else c in
        incr i;
        match Unix.write_substring fd (String.make 1 c) 0 1 with
        | _ -> ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          (* The server already hung up; one last poll for the 408. *)
          poll 0.2 ~silent:(Some `Reset)
      end
    done;
    finish (match !result with Some o -> o | None -> `Still_connected)
  with Unix.Unix_error _ -> finish `Connect_failed

(* ------------------------------------------------------------------ *)
(* the campaign                                                       *)
(* ------------------------------------------------------------------ *)

let counter_kind name kind snapshot =
  Option.value ~default:0 (Obs.find_counter ~labels:[ ("kind", kind) ] snapshot name)

let run config =
  let lines = ref [] in
  let meas = ref [] in
  let line fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let measure fmt = Printf.ksprintf (fun s -> meas := s :: !meas) fmt in
  line "mgq chaos: seed=%d users=%d replicas=%d workers=%d" config.seed config.users
    config.replicas config.workers;
  line
    "load: rate=%.0f/s connections=%d phases=%d/%d/%d ms slo=%d ms"
    config.rate_per_s config.connections config.baseline_ms config.fault_ms
    config.recovery_ms
    (config.slo_ns / 1_000_000);
  line
    "net faults: reset_send_p=%.3f reset_recv_p=%.3f first_byte_delay=%d ms \
     attackers=%d@%dms/byte"
    config.reset_send_p config.reset_recv_p config.first_byte_delay_ms config.attackers
    config.attacker_gap_ms;
  line "server deadlines: header=%.2fs body=%.2fs" config.header_deadline_s
    config.body_deadline_s;
  (* Seed-derived fault schedule. *)
  let crash_at_write = 2 + (config.seed * 7 mod 41) in
  if config.failover then
    line "disk fault: primary tears page write %d, then failover" crash_at_write
  else line "disk fault: disabled";
  let dataset =
    Mgq_twitter.Generator.generate
      (Mgq_twitter.Generator.scaled ~seed:config.seed ~n_users:config.users ())
  in
  let app =
    App.create
      ~config:
        {
          App.replicas = config.replicas;
          policy = Router.Round_robin;
          admission = None;
          seed = config.seed;
        }
      dataset
  in
  let server =
    Server.serve
      ~config:
        {
          Server.default_config with
          Server.workers = config.workers;
          header_deadline_s = config.header_deadline_s;
          body_deadline_s = config.body_deadline_s;
        }
      ~handler:(App.handle app) ()
  in
  let port = Server.port server in
  let loadgen ~duration_ms ~net ~retry =
    Loadgen.run
      {
        Loadgen.default_config with
        Loadgen.port;
        seed = config.seed;
        rate_per_s = config.rate_per_s;
        duration_ns = duration_ms * 1_000_000;
        connections = config.connections;
        slo_ns = config.slo_ns;
        uids = Array.init (min 100 config.users) (fun i -> i);
        net;
        retry;
      }
  in
  (* [Server.stop] is idempotent: the explicit stop before the oracles
     runs the graceful drain; this one only fires on an exception. *)
  Fun.protect ~finally:(fun () -> try Server.stop server with _ -> ()) @@ fun () ->
  (* -------------------------- phase A: baseline ------------------- *)
  let baseline = loadgen ~duration_ms:config.baseline_ms ~net:None ~retry:None in
  (* -------------------------- phase B: faults --------------------- *)
  let before_fault = Obs.snapshot () in
  let attacker_results = Array.make config.attackers `Still_connected in
  let attacker_threads =
    List.init config.attackers (fun i ->
        Thread.create
          (fun () ->
            attacker_results.(i) <-
              slowloris ~host:"127.0.0.1" ~port
                ~gap_s:(float_of_int config.attacker_gap_ms /. 1e3)
                ~give_up_s:(config.header_deadline_s +. 3.0))
          ())
  in
  (* The write/failover story runs beside the HTTP load: a register on
     the primary takes acked writes until the armed page-write crash
     fires, then the harness promotes and re-checks the register —
     the same probe the consistency audit runs in-process. *)
  let acked = ref 0 in
  let write_error = ref None in
  let lost_acked = ref 0 in
  let register_ok = ref true in
  let crash_fired = ref false in
  let writer =
    Thread.create
      (fun () ->
        try
          let node =
            App.write app (fun db ->
                Db.create_node db ~label:"chaos_reg"
                  (Property.of_list [ ("v", Value.Int 0) ]))
          in
          if config.failover then App.kill_primary app ~crash_at_write;
          (try
             for i = 1 to config.writes do
               App.write app (fun db -> Db.set_node_property db node "v" (Value.Int i));
               acked := i;
               Thread.delay 0.005
             done
           with Fault.Torn_write _ | Fault.Crashed _ | Cluster.Unavailable _ ->
             crash_fired := true);
          if !crash_fired && App.primary_down app then begin
            let p = App.promote app in
            lost_acked := p.Cluster.lost_acked;
            let v =
              App.on_primary app (fun db ->
                  match Db.node_property db node "v" with Value.Int v -> v | _ -> -1)
            in
            register_ok := v = !acked || v = !acked + 1;
            if not !register_ok then
              measure "register after failover: v=%d acked=%d" v !acked
          end
        with e -> write_error := Some (Printexc.to_string e))
      ()
  in
  let net_plan =
    Sim_net.plan ~seed:config.seed
      ~first_byte_delay_ns:(config.first_byte_delay_ms * 1_000_000)
      ~reset_send_p:config.reset_send_p ~reset_recv_p:config.reset_recv_p ()
  in
  let fault =
    loadgen ~duration_ms:config.fault_ms ~net:(Some net_plan)
      ~retry:(Some Loadgen.default_retry)
  in
  Thread.join writer;
  List.iter Thread.join attacker_threads;
  let after_fault = Obs.snapshot () in
  (* -------------------------- phase C: recovery ------------------- *)
  let recovery =
    loadgen ~duration_ms:config.recovery_ms ~net:None ~retry:(Some Loadgen.default_retry)
  in
  Server.stop server;
  (* -------------------------- oracles ----------------------------- *)
  let verdicts = ref [] in
  let oracle name passed detail = verdicts := { Verdict.name; passed; detail } :: !verdicts in
  (* 1: no acked write lost across the kill + failover. *)
  (if not config.failover then
     oracle "no-acked-write-lost" true "failover disabled; nothing to lose"
   else
     match !write_error with
     | Some e -> oracle "no-acked-write-lost" false ("writer thread died: " ^ e)
     | None ->
       if not !crash_fired then
         oracle "no-acked-write-lost" false
           (Printf.sprintf "armed crash at page write %d never fired (%d writes acked)"
              crash_at_write !acked)
       else
         oracle "no-acked-write-lost"
           (!lost_acked = 0 && !register_ok)
           (Printf.sprintf "lost_acked=%d register_ok=%b after %d acked writes"
              !lost_acked !register_ok !acked));
  (* 2: no hung or leaked worker after a graceful stop. *)
  let active = Server.active_connections server in
  oracle "workers-drained" (active = 0)
    (Printf.sprintf "%d connections still held after stop" active);
  (* 3: every scheduled request resolved to exactly one typed outcome. *)
  let typed (label, (r : Loadgen.report)) =
    let accounted = r.ok + r.rejected + r.resets + r.timeouts + r.errors in
    if r.arrivals <> r.sent || r.sent <> accounted then
      Some
        (Printf.sprintf "%s: arrivals=%d sent=%d accounted=%d" label r.arrivals r.sent
           accounted)
    else None
  in
  let leaks =
    List.filter_map typed
      [ ("baseline", baseline); ("fault", fault); ("recovery", recovery) ]
  in
  oracle "typed-outcomes" (leaks = [])
    (if leaks = [] then "every request accounted for" else String.concat "; " leaks);
  (* 4: goodput back to >= 90% of the pre-fault baseline. *)
  oracle "goodput-recovered"
    (recovery.Loadgen.goodput_per_s >= 0.9 *. baseline.Loadgen.goodput_per_s)
    (Printf.sprintf "baseline %.0f/s -> recovery %.0f/s" baseline.Loadgen.goodput_per_s
       recovery.Loadgen.goodput_per_s);
  (* 5: every slowloris attacker evicted with a typed 408. *)
  let timeouts_during_fault =
    counter_kind "server.conn_outcome" "timeout" after_fault
    - counter_kind "server.conn_outcome" "timeout" before_fault
  in
  let evicted_408 =
    Array.fold_left
      (fun n o -> if o = `Evicted_408 then n + 1 else n)
      0 attacker_results
  in
  oracle "slow-clients-evicted"
    (timeouts_during_fault >= config.attackers && evicted_408 = config.attackers)
    (Printf.sprintf "%d/%d attackers saw a 408; server recorded %d timeout evictions"
       evicted_408 config.attackers timeouts_during_fault);
  let verdicts = List.rev !verdicts in
  List.iter
    (fun (v : Verdict.t) -> line "oracle %s: %s" v.name (if v.passed then "PASS" else "FAIL"))
    verdicts;
  line "campaign: %s" (if Verdict.passed verdicts then "PASS" else "FAIL");
  (* Wall-clock diagnostics, outside the deterministic section. *)
  List.iter
    (fun (label, (r : Loadgen.report)) ->
      measure
        "%s: arrivals=%d ok=%d 429=%d resets=%d timeouts=%d errors=%d retries=%d \
         goodput=%.0f/s p50=%.2fms p99=%.2fms"
        label r.Loadgen.arrivals r.ok r.rejected r.resets r.timeouts r.errors r.retries
        r.goodput_per_s
        (float_of_int r.p50_ns /. 1e6)
        (float_of_int r.p99_ns /. 1e6))
    [ ("baseline", baseline); ("fault", fault); ("recovery", recovery) ];
  let net_stats = Sim_net.stats net_plan in
  measure "sim_net: conns=%d sends=%d recvs=%d resets_injected=%d first_byte_delays=%d"
    net_stats.Sim_net.conns net_stats.sends net_stats.recvs net_stats.resets_injected
    net_stats.first_byte_delays;
  List.iter (fun (v : Verdict.t) -> measure "oracle %s: %s" v.name v.detail) verdicts;
  { verdicts; lines = List.rev !lines; measurements = List.rev !meas }
