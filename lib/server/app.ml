(* The application behind the socket: routes HTTP requests into the
   existing stack so one request flows

     parse -> X-Deadline-Ms -> Budget -> Admission -> Guard/breaker
           -> Router -> planner -> engine

   exactly like an in-process caller would, with a [server.request]
   trace span rooting the router/replica/op spans underneath.

   Concurrency model: the socket layer runs a fixed worker pool, but
   the engine instances (Db, Cypher sessions, the trace collector) are
   single-threaded by design. So [handle] serializes on one mutex:
   parsing and socket I/O overlap across workers, engine time does
   not. Admission still bounds how much work is admitted per second;
   the mutex bounds how it executes. *)

module Cluster = Mgq_cluster.Cluster
module Replica = Mgq_cluster.Replica
module Router = Mgq_cluster.Router
module Admission = Mgq_overload.Admission
module Guard = Mgq_overload.Guard
module Contexts = Mgq_queries.Contexts
module Q_neo_api = Mgq_queries.Q_neo_api
module Results = Mgq_queries.Results
module Workload = Mgq_queries.Workload
module Cypher = Mgq_cypher.Cypher
module Plan = Mgq_cypher.Plan
module Import_neo = Mgq_twitter.Import_neo
module Schema = Mgq_twitter.Schema
module Db = Mgq_neo.Db
module Json = Mgq_util.Json
module Budget = Mgq_util.Budget
module Obs = Mgq_obs.Obs

(* latency buckets in microseconds: 50us .. 1s *)
let latency_buckets =
  [ 50; 100; 250; 500; 1_000; 2_500; 5_000; 10_000; 25_000; 50_000; 100_000; 250_000;
    500_000; 1_000_000 ]

let m_requests status =
  Obs.counter "server.requests" ~labels:[ ("status", string_of_int status) ]

let m_latency = Obs.histogram "server.latency_us" ~buckets:latency_buckets
let m_inflight = Obs.gauge "server.inflight"
let m_deadline_requests = Obs.counter "server.deadline_requests"
let m_traced = Obs.counter "server.traced_requests"

type config = {
  replicas : int;
  policy : Router.policy;
  admission : Admission.config option;
  seed : int;
}

let default_config =
  {
    replicas = 1;
    policy = Router.Round_robin;
    admission = Some Admission.default_config;
    seed = 42;
  }

type t = {
  config : config;
  cluster : Cluster.t;
  guard : Guard.t;
  admission : Admission.t option;
  sessions : (Db.t * Cypher.t) list;  (* physical-identity keyed, per serveable db *)
  users : int array;
  tweets : int array;
  hashtags : int array;
  report : Mgq_twitter.Import_report.t;
  mutex : Mutex.t;
  clock : unit -> int;  (* monotonic ns; injectable for tests *)
}

let create ?(config = default_config)
    ?(clock = fun () -> Int64.to_int (Mgq_util.Stats.Timing.now_ns ())) dataset =
  let cluster_config =
    {
      Cluster.default_config with
      Cluster.replicas = config.replicas;
      lag = Replica.Immediate;
      drop_p = 0.;
      sync_replicas = min 1 config.replicas;
      policy = config.policy;
      seed = config.seed;
    }
  in
  let primary = Db.create () in
  let report, users, tweets, hashtags = Import_neo.run primary dataset in
  (* Replicas are base backups of the imported primary, so the
     primary's dataset->node maps are valid on every replica. *)
  let cluster = Cluster.create ~config:cluster_config ~primary () in
  let dbs =
    Cluster.primary cluster
    :: Array.to_list (Array.map Replica.db (Cluster.replicas cluster))
  in
  {
    config;
    cluster;
    guard = Guard.create cluster (Mgq_util.Rng.create config.seed);
    admission = Option.map (fun c -> Admission.create ~config:c ()) config.admission;
    sessions = List.map (fun db -> (db, Cypher.create db)) dbs;
    users;
    tweets;
    hashtags;
    report;
    mutex = Mutex.create ();
    clock;
  }

let cluster t = t.cluster
let guard t = t.guard
let admission t = t.admission

(* ------------------------------------------------------------------ *)
(* chaos-harness hook                                                 *)
(* ------------------------------------------------------------------ *)

(* The chaos campaign mutates the cluster — acked writes, a primary
   kill, failover — while HTTP workers serve reads through [handle].
   The engine instances are single-threaded, so every engine-touching
   step runs under the mutex [handle] holds; touching the cluster
   outside [with_cluster] would race the worker pool. *)
let with_cluster t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) (fun () -> f t.cluster)

(* The Cypher session bound to whichever db the router picked. *)
let session_for t db =
  match List.find_opt (fun (d, _) -> d == db) t.sessions with
  | Some (_, s) -> s
  | None -> Cypher.create db (* unreachable: every serveable db has a session *)

let ctx_for t db =
  {
    Contexts.db;
    session = session_for t db;
    users = t.users;
    tweets = t.tweets;
    hashtags = t.hashtags;
    report = t.report;
  }

(* ------------------------------------------------------------------ *)
(* JSON shapes                                                        *)
(* ------------------------------------------------------------------ *)

let rec results_to_json = function
  | Results.Ids ids ->
    Json.Obj [ ("kind", Json.Str "ids"); ("ids", Json.Arr (List.map (fun i -> Json.Int i) ids)) ]
  | Results.Counted pairs ->
    Json.Obj
      [
        ("kind", Json.Str "counted");
        ( "items",
          Json.Arr
            (List.map
               (fun (id, c) -> Json.Obj [ ("id", Json.Int id); ("count", Json.Int c) ])
               pairs) );
      ]
  | Results.Tag_counts pairs ->
    Json.Obj
      [
        ("kind", Json.Str "tag_counts");
        ( "items",
          Json.Arr
            (List.map
               (fun (t, c) -> Json.Obj [ ("tag", Json.Str t); ("count", Json.Int c) ])
               pairs) );
      ]
  | Results.Tags tags ->
    Json.Obj
      [ ("kind", Json.Str "tags"); ("tags", Json.Arr (List.map (fun t -> Json.Str t) tags)) ]
  | Results.Path_length l ->
    Json.Obj
      [
        ("kind", Json.Str "path");
        ("length", match l with None -> Json.Null | Some n -> Json.Int n);
      ]
  | Results.Degraded { partial; frontier; frontier_total } -> (
    match results_to_json partial with
    | Json.Obj fields ->
      Json.Obj
        (fields
        @ [
            ( "degraded",
              Json.Obj
                [ ("frontier", Json.Int frontier); ("frontier_total", Json.Int frontier_total) ]
            );
          ])
    | j -> j)

let value_to_json = function
  | Mgq_core.Value.Null -> Json.Null
  | Mgq_core.Value.Bool b -> Json.Bool b
  | Mgq_core.Value.Int i -> Json.Int i
  | Mgq_core.Value.Float f -> Json.Float f
  | Mgq_core.Value.Str s -> Json.Str s

let json_to_value = function
  | Json.Null -> Ok Mgq_core.Value.Null
  | Json.Bool b -> Ok (Mgq_core.Value.Bool b)
  | Json.Int i -> Ok (Mgq_core.Value.Int i)
  | Json.Float f -> Ok (Mgq_core.Value.Float f)
  | Json.Str s -> Ok (Mgq_core.Value.Str s)
  | Json.Arr _ | Json.Obj _ -> Error "query parameters must be JSON scalars"

let error_json ~status msg =
  Http.json_response ~status (Json.Obj [ ("error", Json.Str msg); ("status", Json.Int status) ])

(* ------------------------------------------------------------------ *)
(* request plumbing                                                   *)
(* ------------------------------------------------------------------ *)

exception Reply of Http.response

let bad_request msg = raise (Reply (error_json ~status:400 msg))

let int_param req name ~default =
  match Http.query_param name req with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None -> bad_request (Printf.sprintf "query parameter %s=%S is not an integer" name v))

(* X-Deadline-Ms: a wall-clock deadline for the whole request, carried
   into the engine as a saturating Budget (see Budget.of_deadline_ms). *)
let budget_of_headers req =
  match Http.header "x-deadline-ms" req with
  | None -> None
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some ms ->
      Obs.Counter.incr m_deadline_requests;
      Some (Budget.of_deadline_ms ms)
    | None -> bad_request (Printf.sprintf "bad X-Deadline-Ms header %S" v))

let cost_class_of_header req ~default =
  match Http.header "x-cost-class" req with
  | None -> default
  | Some "cheap" -> Workload.Cheap
  | Some "moderate" -> Workload.Moderate
  | Some "expensive" -> Workload.Expensive
  | Some v -> bad_request (Printf.sprintf "bad X-Cost-Class header %S" v)

(* Admission at the front door: a rejection becomes HTTP 429 with a
   ceil-rounded Retry-After (never 0 when the hint is positive). *)
let with_admission t ~cls f =
  match t.admission with
  | None -> f ()
  | Some adm -> (
    let start = t.clock () in
    match Admission.offer adm ~now_ns:start ~cls with
    | Admission.Rejected { retry_after_ns } ->
      let secs = Admission.retry_after_seconds retry_after_ns in
      Http.json_response ~status:429
        ~headers:[ ("Retry-After", string_of_int secs) ]
        (Json.Obj
           [
             ("error", Json.Str "overloaded: request shed by admission control");
             ("status", Json.Int 429);
             ("retry_after_s", Json.Int secs);
             ("cost_class", Json.Str (Workload.cost_class_to_string cls));
           ])
    | Admission.Admitted -> (
      match f () with
      | resp ->
        Admission.complete adm ~now_ns:(t.clock ()) ~cls
          ~latency_ns:(max 1 (t.clock () - start));
        resp
      | exception e ->
        Admission.abandon adm;
        raise e))

(* Serve one engine read through breaker + router; partial results
   from an exhausted budget still answer (200 with "partial": true),
   they just stop early — the typed-partial contract from PR 1.
   Exhaustion is caught INSIDE the guarded closure: to the breaker a
   budget that ran out is a successful serve, not a replica fault —
   letting it escape would record spurious failures and re-route. *)
let engine_read t ~conn_id ?budget f =
  let session = Cluster.session t.cluster conn_id in
  let outcome =
    Guard.read t.guard ?budget ~session (fun db ->
        match results_to_json (f (ctx_for t db)) with
        | json -> `Complete json
        | exception Results.Budget_exhausted { partial; hits; consumed_ns } ->
          `Partial (results_to_json partial, hits, consumed_ns))
  in
  match outcome with
  | `Complete json -> Http.json_response ~status:200 json
  | `Partial (json, hits, consumed_ns) ->
    let json =
      match json with
      | Json.Obj fields ->
        Json.Obj
          (fields
          @ [
              ("partial", Json.Bool true);
              ("budget_hits", Json.Int hits);
              ("budget_consumed_ns", Json.Int consumed_ns);
            ])
      | j -> j
    in
    Http.json_response ~status:200 json

(* ------------------------------------------------------------------ *)
(* endpoints                                                          *)
(* ------------------------------------------------------------------ *)

let followers ctx ~uid =
  match Q_neo_api.node_of_uid ctx uid with
  | None -> Results.Ids []
  | Some a ->
    let ids =
      Seq.map (Q_neo_api.uid_of ctx)
        (Db.neighbors ctx.Contexts.db a ~etype:Schema.follows Mgq_core.Types.In)
    in
    Results.Ids (Results.sort_ids (List.of_seq ids))

(* GET /users/:id/<view>: the navigation API. The views are the Q2.x
   k-hop family plus the Q4.1 recommendation; class follows
   Workload.cost_class for the matching Table-2 category. *)
let navigation t ~conn_id req ~uid ~view =
  let budget = budget_of_headers req in
  let n = int_param req "n" ~default:10 in
  let cls_of default = cost_class_of_header req ~default in
  let run ~cls f = with_admission t ~cls (fun () -> engine_read t ~conn_id ?budget f) in
  match view with
  | "followers" -> run ~cls:(cls_of Workload.Cheap) (fun ctx -> followers ctx ~uid)
  | "followees" -> run ~cls:(cls_of Workload.Cheap) (fun ctx -> Q_neo_api.q2_1 ctx ~uid)
  | "timeline" -> run ~cls:(cls_of Workload.Cheap) (fun ctx -> Q_neo_api.q2_2 ctx ~uid)
  | "hashtags" ->
    run ~cls:(cls_of Workload.Moderate) (fun ctx -> Q_neo_api.q2_3 ?budget ctx ~uid)
  | "recommendations" ->
    run ~cls:(cls_of Workload.Expensive) (fun ctx ->
        match budget with
        | Some deadline -> Q_neo_api.q4_1_within ~seed:42 ~deadline ctx ~uid ~n
        | None -> Q_neo_api.q4_1 ctx ~uid ~n)
  | "mentioners" ->
    run ~cls:(cls_of Workload.Expensive) (fun ctx -> Q_neo_api.q5_1 ctx ~uid ~n)
  | _ -> error_json ~status:404 (Printf.sprintf "unknown user view %S" view)

(* POST /cypher {"query": "...", "params": {...}}: parameterised
   declarative queries, read-only — writes belong to the primary's
   replication stream, not a randomly routed replica. *)
let cypher t ~conn_id req =
  let body =
    match Json.of_string req.Http.body with
    | Ok j -> j
    | Error msg -> bad_request ("bad JSON body: " ^ msg)
  in
  let text =
    match Option.bind (Json.member "query" body) Json.to_string_opt with
    | Some q -> q
    | None -> bad_request "missing \"query\" field"
  in
  let params =
    match Json.member "params" body with
    | None -> []
    | Some (Json.Obj fields) ->
      List.map
        (fun (k, v) ->
          match json_to_value v with Ok value -> (k, value) | Error msg -> bad_request msg)
        fields
    | Some _ -> bad_request "\"params\" must be an object"
  in
  let budget = budget_of_headers req in
  let cls = cost_class_of_header req ~default:Workload.Moderate in
  with_admission t ~cls @@ fun () ->
  let session = Cluster.session t.cluster conn_id in
  match
    (* The routed session compiles the text once: its plan types the
       query as read-only before it runs. Deadline exhaustion is caught
       inside the guarded closure so the breaker records a serve, not a
       spurious replica fault. *)
    Guard.read t.guard ?budget ~session (fun db ->
        let s = session_for t db in
        match Cypher.plan_of s text with
        | exception Cypher.Query_error msg -> `Query_error msg
        | plan when Plan.has_writes plan -> `Writes
        | _ -> (
          match Cypher.run ?budget s ~params text with
          | result ->
            `Rows
              (Json.Obj
                 [
                   ("columns", Json.Arr (List.map (fun c -> Json.Str c) result.Cypher.columns));
                   ( "rows",
                     Json.Arr
                       (List.map
                          (fun row -> Json.Arr (List.map value_to_json row))
                          (Cypher.value_rows result)) );
                   ("row_count", Json.Int (List.length result.Cypher.rows));
                 ])
          | exception Mgq_util.Budget.Exhausted _ -> `Deadline
          | exception Cypher.Query_error msg -> `Query_error msg))
  with
  | `Rows json -> Http.json_response ~status:200 json
  | `Writes -> error_json ~status:400 "read-only endpoint: the query contains writes"
  | `Query_error msg -> error_json ~status:400 msg
  | `Deadline -> error_json ~status:504 "deadline exceeded before the query completed"

let explain t req =
  match Http.query_param "q" req with
  | None -> error_json ~status:400 "missing q=QUERY parameter"
  | Some text -> (
    let s = session_for t (Cluster.primary t.cluster) in
    match Cypher.explain_estimated s text with
    | plan -> Http.text_response ~status:200 (plan ^ "\n")
    | exception Cypher.Query_error msg -> error_json ~status:400 msg)

let metrics () = Http.text_response ~status:200 (Obs.render (Obs.snapshot ()) ^ "\n")

(* ------------------------------------------------------------------ *)
(* dispatch                                                           *)
(* ------------------------------------------------------------------ *)

let split_path path = List.filter (fun s -> s <> "") (String.split_on_char '/' path)

let route t ~conn_id req =
  match (req.Http.meth, split_path req.Http.path) with
  | "GET", [ "healthz" ] -> Http.text_response ~status:200 "ok\n"
  | "GET", [ "metrics" ] -> metrics ()
  | "GET", [ "explain" ] -> explain t req
  | "POST", [ "cypher" ] -> cypher t ~conn_id req
  | "GET", [ "users"; id; view ] -> (
    match int_of_string_opt id with
    | Some uid -> navigation t ~conn_id req ~uid ~view
    | None -> error_json ~status:400 (Printf.sprintf "bad user id %S" id))
  | ("GET" | "POST" | "HEAD"), _ ->
    error_json ~status:404 (Printf.sprintf "no route for %s %s" req.Http.meth req.Http.path)
  | meth, _ -> error_json ~status:405 (Printf.sprintf "method %s not supported" meth)

let span_names_json () =
  Json.Arr
    (List.map
       (fun (s : Obs.Trace.span) ->
         Json.Obj [ ("name", Json.Str s.Obs.Trace.name); ("depth", Json.Int s.Obs.Trace.depth) ])
       (Obs.Trace.spans ()))

let wants_trace req =
  match Http.query_param "trace" req with Some ("1" | "true") -> true | _ -> false

(* One request, end to end. Serialized on the engine mutex (see the
   module comment); the [server.request] span roots the router /
   replica / operator spans of everything underneath. *)
let handle t ~conn_id req =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
  let start = t.clock () in
  Obs.Gauge.add m_inflight 1.;
  let traced = wants_trace req in
  if traced then begin
    Obs.Counter.incr m_traced;
    Obs.Trace.enable ~clock:(fun () -> Int64.of_int (t.clock ())) ()
  end;
  let resp =
    try
      Obs.Trace.with_span "server.request"
        ~attrs:[ ("method", req.Http.meth); ("path", req.Http.path) ]
      @@ fun () -> route t ~conn_id req
    with
    | Reply resp -> resp
    | Cluster.Unavailable msg -> error_json ~status:503 msg
    | e -> error_json ~status:500 ("internal error: " ^ Printexc.to_string e)
  in
  let resp =
    if not traced then resp
    else begin
      let trace = span_names_json () in
      let tree = Obs.Trace.render_tree () in
      Obs.Trace.disable ();
      match (resp.Http.status, Json.of_string resp.Http.resp_body) with
      | 200, Ok (Json.Obj fields) ->
        Http.json_response ~status:200
          (Json.Obj (fields @ [ ("trace", trace); ("trace_tree", Json.Str tree) ]))
      | _ -> resp
    end
  in
  Obs.Gauge.add m_inflight (-1.);
  Obs.Counter.incr (m_requests resp.Http.status);
  Obs.Histogram.observe m_latency (max 0 ((t.clock () - start) / 1_000));
  resp
