(* cypher-http: a closed loop over one keep-alive connection against
   `mgq serve --workers 2`, started as a child process on the generated
   TSV files, posting the parameterised Table-2 texts to /cypher.

   One connection, because the server runs every query under one engine
   mutex: a second connection adds no throughput on this mix (both read
   about 1,050 op/s), only a wait for the mutex behind the other
   connection's query, which made p50 swing with the host's speed
   (10-run IQR/median 0.29 against 0.1-0.2 for the other metrics).

   The traced run cannot wrap the layers inside the server process, so
   it replays the same request bytes in process: Http.parser, then
   App.handle on an App built from the same files, then
   Http.response_to_string. Interleaved with the replay, it times each
   op's engine calls on their own (Cypher.plan_of, Cypher.run), and
   App.handle minus them is the app's own time. Counts (bytes out, sheds,
   plan-cache hits, db hits) come from the real server's /metrics,
   scraped around the timed window, and so does the server's own time
   per request (server.latency_us, which App.handle takes once it holds
   the engine mutex). Whatever the client saw beyond that time, parsing
   and serialising is transport: the socket and the worker pool. *)

open Common
module App = Mgq_server.App
module Http = Mgq_server.Http
module Cluster = Mgq_cluster.Cluster
module Replica = Mgq_cluster.Replica
module Cypher = Mgq_cypher.Cypher
module Value = Mgq_core.Value
module Json = Mgq_util.Json
module Reference = Mgq_queries.Reference
module Workload = Mgq_queries.Workload

let workers = 2
let setups = 3

(* ---------------- the server child ---------------- *)

type server = { pid : int; ic : in_channel; port : int }

(* "mgq serve: listening on http://HOST:PORT (...)" *)
let listening_port line =
  try Scanf.sscanf line "mgq serve: listening on http://%[^:]:%d" (fun _ port -> Some port)
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> None

let start cfg =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv =
    [| cfg.mgq; "serve"; "--dir"; cfg.tmp; "--port"; "0"; "--workers"; string_of_int workers |]
  in
  let pid = Unix.create_process cfg.mgq argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let stop_child () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in_noerr ic
  in
  match input_line ic with
  | line -> (
    match listening_port line with
    | Some port -> { pid; ic; port }
    | None ->
      stop_child ();
      failwith ("unexpected boot line from mgq serve: " ^ line))
  | exception End_of_file ->
    stop_child ();
    failwith "mgq serve exited before listening"

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try
     while true do
       ignore (input_line s.ic)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr s.ic;
  ignore (Unix.waitpid [] s.pid)

(* [f] against a fresh server, with the seconds from launch to its
   listening line: the first set-up sample. *)
let with_server cfg f =
  let s, secs = time_s (fun () -> start cfg) in
  Fun.protect ~finally:(fun () -> stop s) (fun () -> (f s, secs))

let setup_once cfg = snd (with_server cfg ignore)

(* ---------------- the closed loop ---------------- *)

type reply = Reply of int * string | Failed of string

(* Ops [lo, hi), each sent once the previous reply is complete.
   Latency runs from the send to the reply's last byte. A failed op
   leaves a fresh connection behind it. *)
let drive client requests replies lat ~lo ~hi ~timed =
  for i = lo to hi - 1 do
    let t0 = Procfs.now_ns () in
    let r =
      match Client.exchange !client requests.(i) with
      | status, body -> Reply (status, body)
      | exception Client.Transport_error msg -> Failed msg
    in
    if timed then lat.(i - lo) <- float_of_int (Procfs.now_ns () - t0);
    replies.(i) <- r;
    match r with
    | Failed _ -> (
      Client.close !client;
      try client := Client.connect ~port:!client.Client.port with Client.Transport_error _ -> ())
    | Reply _ -> ()
  done

let scrape c =
  let _, body = Client.exchange c (Client.get_request "/metrics") in
  List.filter_map
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some i ->
        Option.map
          (fun v -> (String.sub line 0 i, v))
          (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)))
      | None -> None)
    (String.split_on_char '\n' body)

let metric m name = Option.value ~default:0. (List.assoc_opt name m)

let metric_prefix m prefix =
  List.fold_left (fun acc (k, v) -> if String.starts_with ~prefix k then acc +. v else acc) 0. m

type timed = {
  replies : reply array;
  lat : float array;
  wall : float;
  steal : int;
  rss : float;
  before : (string * float) list;  (** /metrics at the start of the timed window *)
  after : (string * float) list;
}

let run_loop cfg s requests ~warmup =
  let n = Array.length requests in
  let client = ref (Client.connect ~port:s.port) in
  Fun.protect ~finally:(fun () -> Client.close !client) @@ fun () ->
  let replies = Array.make n (Failed "not sent") in
  let lat = Array.make (n - warmup) 0. in
  drive client requests replies lat ~lo:0 ~hi:warmup ~timed:false;
  Procfs.reset_peak_rss (string_of_int s.pid);
  let before = if cfg.trace then scrape !client else [] in
  let steal0 = Procfs.steal_ticks () in
  let w0 = Procfs.now_ns () in
  drive client requests replies lat ~lo:warmup ~hi:n ~timed:true;
  let wall = float_of_int (Procfs.now_ns () - w0) /. 1e9 in
  let steal = Procfs.steal_ticks () - steal0 in
  let rss = Procfs.peak_rss_mb (string_of_int s.pid) in
  let after = if cfg.trace then scrape !client else [] in
  { replies; lat; wall; steal; rss; before; after }

(* ---------------- the op list ---------------- *)

(* Cypher.run time per op at 20,000 users (light users, see
   Opgen.light_users): Q1.1 about 20 ms, Q4.2 0.8 ms, Q4.1 and Q6.1
   0.3 ms, the rest under 0.1 ms. These weights give Q1.1 about 41%
   of the engine time, Q4.2 29%, Q4.1 11%, Q6.1 7%, compiling 11%, the
   rest 2%; and with Q1.1 at 1.4% of the ops the p99 falls inside its
   latency rather than on the edge between two modes. *)
let weights =
  [
    ("Q1.1", 3); ("Q2.1", 10); ("Q2.2", 10); ("Q2.3", 10); ("Q3.1", 10); ("Q3.2", 10);
    ("Q4.1", 50); ("Q4.2", 50); ("Q5.1", 10); ("Q5.2", 10); ("Q6.1", 30);
  ]

let per_second = 1_200
let warmup = 100
(* One spliceable op in 400 writes its uid into the text (about 0.2%
   of ops): every run compiles, yet a compile and the request queued
   behind it stay out of the top 1%, where Q1.1's steady latency sets
   the p99. *)
let splice_every = 400

(* Parameters each Table-2 text takes, as Q_cypher binds them. *)
let cypher_params (op : Opgen.cypher) =
  let a = op.Opgen.args in
  let uid = ("uid", Value.Int a.Workload.uid) and n = ("n", Value.Int a.Workload.n) in
  match op.Opgen.query.Workload.id with
  | "Q1.1" -> [ ("k", Value.Int a.Workload.threshold) ]
  | "Q2.1" | "Q2.2" | "Q2.3" -> [ uid ]
  | "Q3.2" -> [ ("tag", Value.Str a.Workload.tag); n ]
  | "Q6.1" -> [ ("u1", Value.Int a.Workload.uid); ("u2", Value.Int a.Workload.uid2) ]
  | _ -> [ uid; n ]

let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s) in
  let ls = String.length sub in
  let rec go i =
    if i > String.length s - ls then Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i ls = sub then begin
      Buffer.add_string b by;
      go (i + ls)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* The text and parameters sent; a spliced op writes its uid into the
   text, so the plan cache misses and the compile path runs. *)
let cypher_text_params (op : Opgen.cypher) =
  let text = op.Opgen.query.Workload.cypher_text op.Opgen.args in
  let params = cypher_params op in
  if op.Opgen.spliced then
    ( replace_all ~sub:"$uid" ~by:(string_of_int op.Opgen.args.Workload.uid) text,
      List.remove_assoc "uid" params )
  else (text, params)

let json_of_value = function
  | Value.Int i -> Json.Int i
  | Value.Str s -> Json.Str s
  | v -> Json.Str (Value.to_display v)

let cypher_request op =
  let text, params = cypher_text_params op in
  Client.post_request "/cypher"
    (Json.to_string
       (Json.Obj
          [
            ("query", Json.Str text);
            ("params", Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) params));
          ]))

(* ---------------- the traced in-process replay ---------------- *)

let parse request =
  let p = Http.parser () in
  Http.feed p request;
  match Http.next p with
  | Ok (Some req) -> req
  | Ok None | Error _ -> failwith "in-process replay: request did not parse"

(* The server's path, with a span around each layer. *)
let serve_traced spans ~op app request =
  Spans.with_span spans ~op "op" @@ fun () ->
  let req = Spans.with_span spans ~op "http.parse" (fun () -> parse request) in
  let resp = Spans.with_span spans ~op "app.handle" (fun () -> App.handle app ~conn_id:1 req) in
  ignore (Spans.with_span spans ~op "http.serialize" (fun () -> Http.response_to_string ~keep_alive:true resp))

(* The op's engine calls on their own, and the core-API version of the
   same query for comparison. *)
let engine_traced spans ~op session ctx (o : Opgen.cypher) =
  let text, params = cypher_text_params o in
  ignore (Spans.with_span spans ~op "cypher.compile" (fun () -> Cypher.plan_of session text));
  ignore (Spans.with_span spans ~op ("cypher.exec." ^ o.Opgen.query.Workload.id) (fun () -> Cypher.run session ~params text));
  ignore (Spans.with_span spans ~op "neo.api" (fun () -> o.Opgen.query.Workload.run_neo_api ctx o.Opgen.args))

let replica_ctx app =
  let cluster = App.cluster app in
  let db =
    match Cluster.replicas cluster with
    | [||] -> Cluster.primary cluster
    | rs -> Replica.db rs.(0)
  in
  (App.ctx_for app db, db)

let query_ids = List.map (fun q -> q.Workload.id) Workload.all

(* Per-layer metrics of the traced run. Every timed op runs once
   through the HTTP path and once through the engine calls alone, the
   two passes interleaved half the op list apart: both see the same
   stretch of the host's speed, and neither finds the caches warmed by
   the same query a moment before. The in-process App uses mgq serve's
   defaults. *)
let traced_layers cfg (t : timed) ops requests =
  let n = Array.length requests in
  let timed = n - warmup in
  let d, load_s = time_s (fun () -> load_crawl cfg) in
  let app, import_s = time_s (fun () -> App.create d) in
  let ctx, db = replica_ctx app in
  let session = Cypher.create db in
  let warm = Spans.create () in
  for i = 0 to warmup - 1 do
    serve_traced warm ~op:i app requests.(i);
    engine_traced warm ~op:i session ctx ops.(i)
  done;
  let cost0 = cost_of db in
  let spans = Spans.create () in
  for k = 0 to timed - 1 do
    let i = warmup + k and j = warmup + ((k + (timed / 2)) mod timed) in
    serve_traced spans ~op:i app requests.(i);
    engine_traced spans ~op:j session ctx ops.(j)
  done;
  let sim = Cost_model.sub_counters (cost_of db) cost0 in
  let totals = Spans.self_times spans in
  let self = List.map (fun (name, ns, _) -> (name, mean_us ns timed)) totals in
  let us name = lookup name self in
  let exec_us = List.fold_left (fun acc q -> acc +. us ("cypher.exec." ^ q)) 0. query_ids in
  let compile_us = us "cypher.compile" and api_us = us "neo.api" in
  let parse_us = us "http.parse" and serialize_us = us "http.serialize" in
  let app_self_us = us "app.handle" -. compile_us -. exec_us in
  let delta name = metric t.after name -. metric t.before name in
  let server_us = delta "server.latency_us_sum" /. delta "server.latency_us_count" in
  let client_us = Pstats.mean t.lat /. 1e3 in
  let transport_us = client_us -. server_us -. parse_us -. serialize_us in
  (* The reported layers must add up to the client's latency, and none
     may be negative: a negative app.self_us would mean the engine pass
     and the replay disagree. *)
  let reported =
    [
      ("http.parse_us", parse_us);
      ("http.serialize_us", serialize_us);
      ("app.self_us", app_self_us);
      ("cypher.compile_us", compile_us);
      ("cypher.exec_us", exec_us);
      ("http.transport_us", transport_us);
    ]
  in
  let ok, msg =
    self_check ~layer_sum_us:(List.fold_left (fun acc (_, v) -> acc +. v) 0. reported) ~untraced_us:client_us
  in
  let negative = List.filter (fun (_, v) -> v < 0.) reported in
  let check =
    ( ok && negative = [],
      String.concat "; "
        (msg :: List.map (fun (k, v) -> Printf.sprintf "%s is negative (%.3f us)" k v) negative) )
  in
  Spans.write_tsv spans (Filename.concat cfg.out (cfg.workload ^ ".spans.tsv"));
  let delta_prefix p = metric_prefix t.after p -. metric_prefix t.before p in
  let per x = x /. float_of_int timed in
  let shed = delta_prefix "admission.shed{" in
  let cache_hits = delta "cypher.plan_cache{result=hit}" in
  let cache_lookups = delta_prefix "cypher.plan_cache{" in
  let admitted = delta "admission.admitted" in
  let store =
    {
      Cost_model.db_hits = int_of_float (delta "store.db_hits");
      page_hits = int_of_float (delta "store.page_hits");
      page_faults = int_of_float (delta "store.page_faults");
      page_flushes = int_of_float (delta "store.page_flushes");
      simulated_ns = sim.Cost_model.simulated_ns;
    }
  in
  (* Traced: the replayed HTTP path, spans included; untraced: the
     server's timed window. *)
  let traced_s = float_of_int (Spans.inclusive_ns spans "op") /. 1e9 in
  ( [
      ("setup.load_s", load_s);
      ("setup.import_s", import_s);
      ("server.resp_bytes", per (delta "server.bytes_out"));
      ("admission.shed_ratio", if shed +. admitted = 0. then 0. else shed /. (shed +. admitted));
      ("admission.limit", metric t.after "admission.limit");
      ("cypher.plan_cache_hit_ratio", if cache_lookups = 0. then 0. else cache_hits /. cache_lookups);
      ("cypher.db_hits_per_op", per (delta "cypher.db_hits"));
      ("cypher.over_api_ratio", exec_us /. api_us);
      ("neo.api_us", api_us);
      ("trace.overhead_ratio", traced_s /. t.wall);
    ]
    @ reported
    @ List.map
        (fun q ->
          ( "cypher.exec_us." ^ q,
            match List.find_opt (fun (k, _, _) -> k = "cypher.exec." ^ q) totals with
            | Some (_, ns, c) -> mean_us ns c
            | None -> 0. ))
        query_ids
    @ storage_layers store ~ops:timed,
    check,
    [
      ("store_pages", string_of_int (Sim_disk.page_count (Db.disk db)));
      ("pool_pages", string_of_int (Sim_disk.pool_capacity (Db.disk db)));
    ] )

(* ---------------- the run ---------------- *)

let run cfg =
  let d = crawl cfg in
  write_crawl cfg d;
  let reference = Reference.build d in
  let n = warmup + (per_second * cfg.seconds) in
  let ops = Opgen.cypher_ops ~seed:cfg.seed d ~weights ~splice_every ~warmup ~count:n in
  let requests = Array.map cypher_request ops in
  let key (op : Opgen.cypher) = (op.Opgen.query.Workload.id, op.Opgen.args) in
  let answer =
    Oracle.precompute (Array.map key ops) (fun (id, args) ->
        (Opgen.table2 id).Workload.run_reference reference args)
  in
  let t, first_setup_s = with_server cfg (fun s -> run_loop cfg s requests ~warmup) in
  (* A reply byte-identical to an already verified reply for the same
     request is correct too; anything else is decoded and checked. *)
  let verified = Hashtbl.create 4096 in
  let outcomes =
    Array.mapi
      (fun i r ->
        match r with
        | Failed msg -> Outcome.Transport msg
        | Reply (200, body) when Hashtbl.find_opt verified requests.(i) = Some body -> Outcome.Correct
        | Reply (status, body) ->
          let o =
            Oracle.check_reply
              ~expected:(lazy (answer (key ops.(i))))
              ~decode:(Oracle.decode_cypher ~id:ops.(i).Opgen.query.Workload.id)
              (status, body)
          in
          if Outcome.is_ok o then Hashtbl.replace verified requests.(i) body;
          o)
      t.replies
  in
  let meta =
    [
      ("warmup_ops", string_of_int warmup);
      ("timed_ops", string_of_int (n - warmup));
      ("connections", "1");
      ("shards", "none");
      ("server_workers", string_of_int workers);
      ("steal_ticks", string_of_int t.steal);
    ]
  in
  (* The server's store is out of reach; the traced run reports the
     size of its in-process twin. *)
  let layers, self_check, store_meta =
    if cfg.trace then
      let layers, check, store_meta = traced_layers cfg t ops requests in
      (layers, Some check, store_meta)
    else ([], None, [ ("store_pages", "traced-run-only") ])
  in
  let more = List.init (if cfg.trace then 0 else setups - 1) (fun _ -> setup_once cfg) in
  {
    setups_s = first_setup_s :: more;
    latencies_ns = t.lat;
    timed_wall_s = t.wall;
    outcomes;
    peak_rss_mb = t.rss;
    meta = meta @ store_meta;
    layers;
    self_check;
  }
