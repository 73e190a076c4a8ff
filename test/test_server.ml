(* Tests for the serving layer: the streaming HTTP parser (including
   splits at every byte boundary), the response writer, and the full
   stack end to end over real sockets — navigation + Cypher endpoints,
   trace span chain, admission 429s with Retry-After, deadline
   partials, and graceful shutdown. *)

module Http = Mgq_server.Http
module App = Mgq_server.App
module Server = Mgq_server.Server
module Loadgen = Mgq_server.Loadgen
module Sim_net = Mgq_server.Sim_net
module Chaos = Mgq_server.Chaos
module Admission = Mgq_overload.Admission
module Router = Mgq_cluster.Router
module Json = Mgq_util.Json
module Obs = Mgq_obs.Obs
module Generator = Mgq_twitter.Generator

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let now_ns () = Int64.to_int (Mgq_util.Stats.Timing.now_ns ())

(* ------------------------------------------------------------------ *)
(* parser: well-formed requests                                        *)
(* ------------------------------------------------------------------ *)

let get_request = "GET /users/3/followers?n=5&q=a%20b+c HTTP/1.1\r\nHost: mgq\r\nX-Deadline-Ms: 40\r\n\r\n"

let post_request =
  "POST /cypher HTTP/1.1\r\nHost: mgq\r\nContent-Length: 17\r\n\r\n{\"query\": \"ping\"}"

let parse_one s =
  let p = Http.parser () in
  Http.feed p s;
  match Http.next p with
  | Ok (Some r) -> r
  | Ok None -> Alcotest.fail "parser wanted more bytes for a complete request"
  | Error e -> Alcotest.fail ("parser error: " ^ Http.error_message e)

let test_parse_get () =
  let r = parse_one get_request in
  check Alcotest.string "method" "GET" r.Http.meth;
  check Alcotest.string "path" "/users/3/followers" r.Http.path;
  check Alcotest.string "version" "HTTP/1.1" r.Http.version;
  check Alcotest.(option string) "query n" (Some "5") (Http.query_param "n" r);
  check Alcotest.(option string) "query percent+plus decoded" (Some "a b c")
    (Http.query_param "q" r);
  check Alcotest.(option string) "header lowercased" (Some "40")
    (Http.header "X-Deadline-Ms" r);
  check Alcotest.string "no body" "" r.Http.body

let test_parse_post_body () =
  let r = parse_one post_request in
  check Alcotest.string "method" "POST" r.Http.meth;
  check Alcotest.string "body exact" "{\"query\": \"ping\"}" r.Http.body

let test_pipelined_requests () =
  let p = Http.parser () in
  Http.feed p (get_request ^ post_request ^ get_request);
  let next_some () =
    match Http.next p with
    | Ok (Some r) -> r
    | _ -> Alcotest.fail "expected a complete pipelined request"
  in
  check Alcotest.string "first" "GET" (next_some ()).Http.meth;
  check Alcotest.string "second" "POST" (next_some ()).Http.meth;
  check Alcotest.string "third" "GET" (next_some ()).Http.meth;
  check Alcotest.bool "then empty" true (Http.next p = Ok None)

(* The defining property of a push parser: a socket read can split the
   request at ANY byte boundary and the result is identical. *)
let test_split_every_boundary () =
  let reference = parse_one post_request in
  let n = String.length post_request in
  for cut = 1 to n - 1 do
    let p = Http.parser () in
    Http.feed p (String.sub post_request 0 cut);
    (match Http.next p with
    | Ok None -> ()
    | Ok (Some _) -> Alcotest.failf "complete request from a %d-byte prefix" cut
    | Error e -> Alcotest.failf "error at cut %d: %s" cut (Http.error_message e));
    Http.feed p (String.sub post_request cut (n - cut));
    match Http.next p with
    | Ok (Some r) ->
      if r <> reference then Alcotest.failf "cut at byte %d parsed differently" cut
    | _ -> Alcotest.failf "no request after completing the bytes at cut %d" cut
  done

let prop_random_fragmentation =
  QCheck.Test.make ~name:"parser invariant under random fragmentation" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 8) (int_range 1 (String.length post_request - 1)))
    (fun cuts ->
      let reference = parse_one post_request in
      let cuts = List.sort_uniq compare cuts in
      let p = Http.parser () in
      let n = String.length post_request in
      let rec feed_from start = function
        | [] -> Http.feed p (String.sub post_request start (n - start))
        | c :: rest ->
          Http.feed p (String.sub post_request start (c - start));
          ignore (Http.next p);
          feed_from c rest
      in
      feed_from 0 cuts;
      match Http.next p with
      | Ok (Some r) -> r = reference
      | _ -> false)

let test_keep_alive_negotiation () =
  let req ?(version = "HTTP/1.1") ?connection () =
    let conn = match connection with None -> "" | Some c -> "Connection: " ^ c ^ "\r\n" in
    parse_one (Printf.sprintf "GET / %s\r\n%s\r\n" version conn)
  in
  check Alcotest.bool "1.1 default on" true (Http.wants_keep_alive (req ()));
  check Alcotest.bool "1.1 + close" false
    (Http.wants_keep_alive (req ~connection:"close" ()));
  check Alcotest.bool "1.0 default off" false
    (Http.wants_keep_alive (req ~version:"HTTP/1.0" ()));
  check Alcotest.bool "1.0 + keep-alive" true
    (Http.wants_keep_alive (req ~version:"HTTP/1.0" ~connection:"keep-alive" ()))

(* ------------------------------------------------------------------ *)
(* parser: typed protocol errors                                       *)
(* ------------------------------------------------------------------ *)

let feed_all s =
  let p = Http.parser () in
  Http.feed p s;
  (p, Http.next p)

let expect_status expected s =
  match feed_all s with
  | _, Error e -> check Alcotest.int "status" expected (Http.status_of_error e)
  | _, Ok _ -> Alcotest.failf "expected a %d protocol error" expected

let test_malformed_start_line () =
  expect_status 400 "NONSENSE\r\n\r\n";
  expect_status 400 "GET no-leading-slash HTTP/1.1\r\n\r\n";
  expect_status 400 "GET / HTTP/2.0\r\n\r\n";
  expect_status 400 "\r\n\r\n"

let test_malformed_headers () =
  expect_status 400 "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n";
  expect_status 400 "GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
  expect_status 400 "GET / HTTP/1.1\r\nContent-Length: -3\r\n\r\n";
  expect_status 400 "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"

let test_oversized_headers_431 () =
  let p = Http.parser ~max_header_bytes:64 () in
  (* No terminator yet: the parser must reject as soon as the
     accumulated section exceeds the cap, not buffer forever. *)
  Http.feed p ("GET / HTTP/1.1\r\nX-Pad: " ^ String.make 128 'x');
  (match Http.next p with
  | Error e -> check Alcotest.int "431 while streaming" 431 (Http.status_of_error e)
  | Ok _ -> Alcotest.fail "oversized headers accepted");
  (* And the same when the terminator does arrive in one feed. *)
  let p2 = Http.parser ~max_header_bytes:64 () in
  Http.feed p2 ("GET / HTTP/1.1\r\nX-Pad: " ^ String.make 128 'x' ^ "\r\n\r\n");
  match Http.next p2 with
  | Error e -> check Alcotest.int "431 on complete section" 431 (Http.status_of_error e)
  | Ok _ -> Alcotest.fail "oversized headers accepted"

let test_body_over_cap_413 () =
  let p = Http.parser ~max_body_bytes:16 () in
  Http.feed p "POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n";
  match Http.next p with
  | Error e -> check Alcotest.int "413" 413 (Http.status_of_error e)
  | Ok _ -> Alcotest.fail "oversized body accepted"

let test_error_is_sticky () =
  let p, first = feed_all "BAD\r\n\r\n" in
  (match first with Error _ -> () | Ok _ -> Alcotest.fail "expected an error");
  Http.feed p get_request;
  match Http.next p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parser recovered after a protocol error"

let test_percent_decode () =
  check Alcotest.string "hex pair" "a/b" (Http.percent_decode "a%2Fb");
  check Alcotest.string "plus kept in paths" "a+b" (Http.percent_decode "a+b");
  check Alcotest.string "plus is space in queries" "a b"
    (Http.percent_decode ~plus_is_space:true "a+b");
  check Alcotest.string "stray percent passes through" "100%" (Http.percent_decode "100%")

let test_response_writer () =
  let s =
    Http.response_to_string ~keep_alive:true (Http.text_response ~status:200 "hello")
  in
  check Alcotest.bool "status line" true
    (String.length s > 15 && String.sub s 0 15 = "HTTP/1.1 200 OK");
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "content-length" true (contains "Content-Length: 5" s);
  check Alcotest.bool "keep-alive" true (contains "Connection: keep-alive" s);
  let closed =
    Http.response_to_string ~keep_alive:false (Http.text_response ~status:200 "hello")
  in
  check Alcotest.bool "close" true (contains "Connection: close" closed)

(* ------------------------------------------------------------------ *)
(* end to end over real sockets                                        *)
(* ------------------------------------------------------------------ *)

(* A small crawl shared by every e2e case; App.create imports it into
   a fresh one-replica cluster per test (~100 ms). *)
let dataset = lazy (Generator.generate (Generator.scaled ~n_users:120 ()))

let with_server ?admission f =
  let app =
    App.create
      ~config:{ App.replicas = 1; policy = Router.Round_robin; admission; seed = 42 }
      (Lazy.force dataset)
  in
  let server = Server.serve ~handler:(App.handle app) () in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f (Server.port server) server)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let send_string fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* Read one Content-Length-framed response off the socket. *)
let read_response fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 4096 in
  let read_more () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Alcotest.fail "server closed mid-response"
    | n -> Buffer.add_subbytes buf chunk 0 n
  in
  let find_hdr_end () =
    let s = Buffer.contents buf in
    let rec scan i =
      if i + 3 >= String.length s then None
      else if String.sub s i 4 = "\r\n\r\n" then Some (i + 4)
      else scan (i + 1)
    in
    scan 0
  in
  let rec wait () = match find_hdr_end () with Some e -> e | None -> read_more (); wait () in
  let hdr_end = wait () in
  let head = String.sub (Buffer.contents buf) 0 hdr_end in
  let status =
    match String.split_on_char ' ' head with
    | _ :: code :: _ -> int_of_string code
    | _ -> Alcotest.fail "bad status line"
  in
  let header name =
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.lowercase_ascii (String.sub line 0 i) = name ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' head)
  in
  let len = match header "content-length" with Some v -> int_of_string v | None -> 0 in
  while Buffer.length buf < hdr_end + len do
    read_more ()
  done;
  let body = Buffer.sub buf hdr_end len in
  (status, header, body)

let request ?(headers = []) ?body port ~meth ~target () =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      let b = Buffer.create 256 in
      Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\nHost: mgq\r\n" meth target);
      List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v)) headers;
      (match body with
      | Some body ->
        Buffer.add_string b (Printf.sprintf "Content-Length: %d\r\n" (String.length body))
      | None -> ());
      Buffer.add_string b "Connection: close\r\n\r\n";
      (match body with Some body -> Buffer.add_string b body | None -> ());
      send_string fd (Buffer.contents b);
      read_response fd)

let json_of body =
  match Json.of_string body with
  | Ok j -> j
  | Error msg -> Alcotest.failf "bad JSON response: %s (%s)" msg body

let member_string key j =
  match Option.bind (Json.member key j) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %S" key

let test_e2e_basic_routes () =
  with_server (fun port _ ->
      let status, _, body = request port ~meth:"GET" ~target:"/healthz" () in
      check Alcotest.int "healthz status" 200 status;
      check Alcotest.string "healthz body" "ok\n" body;
      let status, _, body = request port ~meth:"GET" ~target:"/users/0/followers" () in
      check Alcotest.int "followers status" 200 status;
      check Alcotest.string "followers kind" "ids" (member_string "kind" (json_of body));
      let status, _, _ = request port ~meth:"GET" ~target:"/nope" () in
      check Alcotest.int "unknown route" 404 status;
      let status, _, _ = request port ~meth:"GET" ~target:"/users/zebra/followers" () in
      check Alcotest.int "bad uid" 400 status;
      let status, _, _ = request port ~meth:"DELETE" ~target:"/healthz" () in
      check Alcotest.int "unsupported method" 405 status)

let test_e2e_cypher () =
  with_server (fun port _ ->
      let q =
        {|{"query": "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid", "params": {"uid": 0}}|}
      in
      let status, _, body = request port ~meth:"POST" ~target:"/cypher" ~body:q () in
      check Alcotest.int "cypher status" 200 status;
      let j = json_of body in
      check Alcotest.bool "has columns" true (Json.member "columns" j <> None);
      check Alcotest.bool "has row_count" true
        (match Json.member "row_count" j with Some (Json.Int _) -> true | _ -> false);
      (* Writes are rejected before execution. *)
      let w = {|{"query": "CREATE (n:user {uid: 999})"}|} in
      let status, _, _ = request port ~meth:"POST" ~target:"/cypher" ~body:w () in
      check Alcotest.int "write rejected" 400 status;
      let status, _, _ = request port ~meth:"POST" ~target:"/cypher" ~body:"{oops" () in
      check Alcotest.int "bad JSON body" 400 status)

(* A spliced text misses every plan cache: the routed session compiles
   it once, and that plan also types the query as read-only. Round
   robin sends one of two consecutive reads to the replica. *)
let test_e2e_spliced_compiles_once () =
  with_server (fun port _ ->
      let misses () =
        Option.value ~default:0
          (Obs.find_counter ~labels:[ ("result", "miss") ] (Obs.snapshot ()) "cypher.plan_cache")
      in
      List.iter
        (fun uid ->
          let before = misses () in
          let q =
            Printf.sprintf
              {|{"query": "MATCH (a:user {uid: %d})-[:follows]->(f:user) RETURN f.uid"}|} uid
          in
          let status, _, _ = request port ~meth:"POST" ~target:"/cypher" ~body:q () in
          check Alcotest.int "spliced status" 200 status;
          check Alcotest.int (Printf.sprintf "uid %d compiled once" uid) 1 (misses () - before))
        [ 7; 8 ])

(* The acceptance span chain: a traced request over the socket shows
   server.request rooting router.route -> replica.serve -> op.*. *)
let test_e2e_trace_chain () =
  with_server (fun port _ ->
      let q = {|{"query": "MATCH (a:user {uid: $uid})-[:follows]->(f:user) RETURN f.uid", "params": {"uid": 0}}|} in
      let status, _, body = request port ~meth:"POST" ~target:"/cypher?trace=1" ~body:q () in
      check Alcotest.int "traced status" 200 status;
      let j = json_of body in
      let names =
        match Json.member "trace" j with
        | Some (Json.Arr spans) ->
          List.filter_map
            (fun s -> Option.bind (Json.member "name" s) Json.to_string_opt)
            spans
        | _ -> Alcotest.fail "no trace array in response"
      in
      let has name = List.mem name names in
      let has_prefix p =
        List.exists
          (fun n -> String.length n >= String.length p && String.sub n 0 (String.length p) = p)
          names
      in
      check Alcotest.bool "server.request span" true (has "server.request");
      check Alcotest.bool "router.route span" true (has "router.route");
      check Alcotest.bool "replica.serve span" true (has "replica.serve");
      check Alcotest.bool "op.* span" true (has_prefix "op."))

let test_e2e_metrics_endpoint () =
  with_server (fun port _ ->
      ignore (request port ~meth:"GET" ~target:"/healthz" ());
      let status, _, body = request port ~meth:"GET" ~target:"/metrics" () in
      check Alcotest.int "metrics status" 200 status;
      let contains needle =
        let n = String.length needle and h = String.length body in
        let rec go i = i + n <= h && (String.sub body i n = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "server.requests counter" true (contains "server.requests");
      check Alcotest.bool "latency histogram" true (contains "server.latency_us"))

let test_e2e_deadline_partial () =
  with_server (fun port _ ->
      let status, _, body =
        request port ~meth:"GET" ~target:"/users/0/hashtags"
          ~headers:[ ("X-Deadline-Ms", "0") ]
          ()
      in
      check Alcotest.int "still 200" 200 status;
      let j = json_of body in
      check Alcotest.bool "partial flag" true (Json.member "partial" j = Some (Json.Bool true));
      (* A bad deadline header is a client error, not a crash. *)
      let status, _, _ =
        request port ~meth:"GET" ~target:"/users/0/hashtags"
          ~headers:[ ("X-Deadline-Ms", "soon") ]
          ()
      in
      check Alcotest.int "bad deadline header" 400 status)

let test_e2e_admission_429 () =
  let admission =
    {
      Admission.default_config with
      Admission.rate_per_s = 1.;
      burst = 2.;
      initial_limit = 64.;
      max_limit = 256.;
    }
  in
  with_server ~admission (fun port _ ->
      (* Burst of 2 admitted; the third must shed with a whole-second
         Retry-After (ceil, never 0). *)
      let statuses =
        List.init 3 (fun _ ->
            let s, header, body = request port ~meth:"GET" ~target:"/users/0/followers" () in
            (s, header "retry-after", body))
      in
      let oks = List.length (List.filter (fun (s, _, _) -> s = 200) statuses) in
      let rejected = List.filter (fun (s, _, _) -> s = 429) statuses in
      check Alcotest.int "two admitted" 2 oks;
      check Alcotest.int "one shed" 1 (List.length rejected);
      match rejected with
      | [ (_, Some retry, body) ] ->
        check Alcotest.bool "Retry-After >= 1" true (int_of_string retry >= 1);
        let j = json_of body in
        check Alcotest.bool "retry_after_s in body" true
          (match Json.member "retry_after_s" j with
          | Some (Json.Int n) -> n >= 1
          | _ -> false)
      | _ -> Alcotest.fail "429 without a Retry-After header")

let test_e2e_keep_alive_two_requests () =
  with_server (fun port _ ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          send_string fd "GET /healthz HTTP/1.1\r\nHost: mgq\r\n\r\n";
          let s1, _, b1 = read_response fd in
          (* Same connection, second request. *)
          send_string fd "GET /healthz HTTP/1.1\r\nHost: mgq\r\n\r\n";
          let s2, _, b2 = read_response fd in
          check Alcotest.int "first" 200 s1;
          check Alcotest.int "second" 200 s2;
          check Alcotest.string "same body" b1 b2))

let test_e2e_protocol_errors_over_socket () =
  with_server (fun port _ ->
      let fd = connect port in
      send_string fd "NOT-HTTP\r\n\r\n";
      let s, _, _ = read_response fd in
      (try Unix.close fd with _ -> ());
      check Alcotest.int "malformed start line over socket" 400 s;
      let fd = connect port in
      send_string fd
        ("POST /cypher HTTP/1.1\r\nHost: mgq\r\nContent-Length: " ^ string_of_int (2 * 1024 * 1024)
       ^ "\r\n\r\n");
      let s, _, _ = read_response fd in
      (try Unix.close fd with _ -> ());
      check Alcotest.int "body over cap over socket" 413 s)

let test_e2e_graceful_shutdown () =
  with_server (fun port server ->
      let s, _, _ = request port ~meth:"GET" ~target:"/healthz" () in
      check Alcotest.int "request before stop" 200 s;
      Server.stop server;
      check Alcotest.bool "served at least one" true (Server.requests_served server >= 1);
      match connect port with
      | fd ->
        (try Unix.close fd with _ -> ());
        Alcotest.fail "connect succeeded after stop"
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ())

(* The acceptance e2e for the load rig: a saturating open-loop run
   returns at least one 429 whose Retry-After is positive. *)
let test_e2e_loadgen_saturation () =
  let admission =
    {
      Admission.default_config with
      Admission.rate_per_s = 20.;
      burst = 5.;
      initial_limit = 64.;
      max_limit = 256.;
    }
  in
  with_server ~admission (fun port _ ->
      let report =
        Loadgen.run
          {
            Loadgen.default_config with
            Loadgen.port;
            rate_per_s = 200.;
            duration_ns = 500_000_000;
            connections = 4;
            uids = Array.init 50 (fun i -> i);
          }
      in
      check Alcotest.bool "some requests served" true (report.Loadgen.ok > 0);
      check Alcotest.bool "saturation sheds" true (report.Loadgen.rejected >= 1);
      check Alcotest.bool "Retry-After positive" true (report.Loadgen.min_retry_after_s >= 1);
      check Alcotest.int "no transport errors" 0 report.Loadgen.errors)

(* ------------------------------------------------------------------ *)
(* network fault injection (Sim_net) and slow-client defence          *)
(* ------------------------------------------------------------------ *)

(* A Content-Length: 0 request must complete immediately (no body
   bytes to wait for) and hand the parser cleanly to a pipelined
   follow-up already sitting in the buffer. *)
let test_content_length_zero_pipelined () =
  let p = Http.parser () in
  check Alcotest.bool "starts idle" true (Http.phase p = `Idle);
  Http.feed p
    "POST /cypher HTTP/1.1\r\nHost: mgq\r\nContent-Length: 0\r\n\r\nGET /healthz \
     HTTP/1.1\r\nHost: mgq\r\n\r\n";
  (match Http.next p with
  | Ok (Some r) ->
    check Alcotest.string "first method" "POST" r.Http.meth;
    check Alcotest.string "empty body" "" r.Http.body
  | _ -> Alcotest.fail "first request did not parse");
  (match Http.next p with
  | Ok (Some r) ->
    check Alcotest.string "pipelined method" "GET" r.Http.meth;
    check Alcotest.string "pipelined path" "/healthz" r.Http.path
  | _ -> Alcotest.fail "pipelined follow-up did not parse");
  check Alcotest.bool "idle again" true (Http.phase p = `Idle)

(* The parser phase is what the server's deadline logic keys off:
   partial headers arm the header clock, a pending body arms the body
   clock, a drained buffer disarms both. *)
let test_parser_phase_transitions () =
  let p = Http.parser () in
  Http.feed p "GET /healthz HT";
  check Alcotest.bool "mid-start-line" true
    (Http.next p = Ok None && Http.phase p = `In_headers);
  Http.feed p "TP/1.1\r\nContent-Length: 4\r\n\r\n";
  check Alcotest.bool "headers done, body pending" true
    (Http.next p = Ok None && Http.phase p = `In_body);
  Http.feed p "ab";
  check Alcotest.bool "body still short" true
    (Http.next p = Ok None && Http.phase p = `In_body);
  Http.feed p "cd";
  (match Http.next p with
  | Ok (Some r) -> check Alcotest.string "body" "abcd" r.Http.body
  | _ -> Alcotest.fail "request did not complete");
  check Alcotest.bool "idle after completion" true (Http.phase p = `Idle)

(* Same seed, same injection schedule: the (reset?, cut point) pair of
   every send is a pure function of the plan seed, independent of the
   sockets underneath. *)
let test_sim_net_deterministic_schedule () =
  let schedule seed =
    let plan = Sim_net.plan ~seed ~reset_send_p:0.4 () in
    List.init 20 (fun _ ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let c = Sim_net.attach plan a in
        let r =
          match Sim_net.send c "hello, injected world" with
          | () -> None
          | exception Sim_net.Injected_reset { at; _ } -> Some at
        in
        (try Unix.close a with _ -> ());
        (try Unix.close b with _ -> ());
        r)
  in
  let s1 = schedule 7 and s2 = schedule 7 and s3 = schedule 8 in
  check Alcotest.bool "same seed, same schedule" true (s1 = s2);
  check Alcotest.bool "some resets fired" true (List.exists Option.is_some s1);
  check Alcotest.bool "some sends survived" true (List.exists Option.is_none s1);
  check Alcotest.bool "different seed, different schedule" true (s1 <> s3)

(* An injected reset closes the link's fd; the fd the process opens
   next reuses that number, and closing the link afterwards must not
   close it a second time (which would shut the new socket). *)
let test_loadgen_reset_closes_link_once () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 4;
  let port = match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  let config =
    {
      Loadgen.default_config with
      port;
      net = Some (Sim_net.plan ~seed:1 ~reset_send_p:1.0 ());
    }
  in
  let link = Loadgen.connect config in
  (match link.Loadgen.send "GET /healthz HTTP/1.1\r\n\r\n" with
  | () -> Alcotest.fail "reset did not fire"
  | exception Sim_net.Injected_reset _ -> ());
  let fresh = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Loadgen.close_link link;
  let alive = match Unix.fstat fresh with _ -> true | exception Unix.Unix_error _ -> false in
  check Alcotest.bool "fd opened after the reset survives close_link" true alive;
  Unix.close fresh;
  Unix.close listener

(* Trickled sends still deliver every byte, and the stats ledger
   accounts for them exactly. *)
let test_sim_net_trickle_accounting () =
  let plan = Sim_net.plan ~seed:1 ~chunk:1 ~first_byte_delay_ns:1_000 () in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let c = Sim_net.attach plan a in
  let msg = "twelve bytes" in
  Sim_net.send c msg;
  Sim_net.send c msg;
  let buf = Bytes.create 64 in
  let got = Buffer.create 32 in
  while Buffer.length got < 2 * String.length msg do
    let n = Unix.read b buf 0 (Bytes.length buf) in
    Buffer.add_subbytes got buf 0 n
  done;
  check Alcotest.string "all bytes arrive in order" (msg ^ msg) (Buffer.contents got);
  let s = Sim_net.stats plan in
  check Alcotest.int "bytes_sent" (2 * String.length msg) s.Sim_net.bytes_sent;
  check Alcotest.int "sends" 2 s.Sim_net.sends;
  check Alcotest.int "first-byte delay fires once per connection" 1
    s.Sim_net.first_byte_delays;
  (try Unix.close a with _ -> ());
  try Unix.close b with _ -> ()

(* Suspension stops faults from firing but keeps consuming the
   stream, so the schedule does not shift underneath later draws. *)
let test_sim_net_suspend_keeps_schedule () =
  let run ~suspend_first =
    let plan = Sim_net.plan ~seed:3 ~reset_send_p:1.0 () in
    let attempt () =
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let c = Sim_net.attach plan a in
      let r =
        match Sim_net.send c "payload" with
        | () -> None
        | exception Sim_net.Injected_reset { at; _ } -> Some at
      in
      (try Unix.close a with _ -> ());
      (try Unix.close b with _ -> ());
      r
    in
    let first =
      if suspend_first then Sim_net.with_suspended plan attempt else attempt ()
    in
    (first, attempt ())
  in
  let live_1, live_2 = run ~suspend_first:false in
  let susp_1, susp_2 = run ~suspend_first:true in
  check Alcotest.bool "p=1.0 fires when live" true (Option.is_some live_1);
  check Alcotest.bool "suspended draw does not fire" true (susp_1 = None);
  check Alcotest.bool "second draw unaffected by suspension" true (live_2 = susp_2)

(* Obs deltas for one conn_outcome kind, polled: outcomes are recorded
   by worker threads after the client side already moved on. *)
let outcome_count kind =
  Option.value ~default:0
    (Obs.find_counter ~labels:[ ("kind", kind) ] (Obs.snapshot ()) "server.conn_outcome")

let await ?(timeout_s = 5.0) cond =
  let deadline = now_ns () + int_of_float (timeout_s *. 1e9) in
  let rec go () =
    if cond () then true
    else if now_ns () > deadline then false
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

(* Peer FIN mid-body: headers promise 10 bytes, the client sends 3 and
   closes. The server must type the outcome as an abort and keep
   serving other connections. *)
let test_e2e_peer_close_mid_body () =
  with_server (fun port _ ->
      let before = outcome_count "aborted" in
      let fd = connect port in
      send_string fd "POST /cypher HTTP/1.1\r\nHost: mgq\r\nContent-Length: 10\r\n\r\nabc";
      Unix.close fd;
      check Alcotest.bool "abort typed as conn_outcome{aborted}" true
        (await (fun () -> outcome_count "aborted" >= before + 1));
      let s, _, _ = request port ~meth:"GET" ~target:"/healthz" () in
      check Alcotest.int "server still serves after the abort" 200 s)

(* A client that resets the connection instead of reading its response
   (Sim_net injects a real RST on recv): the worker's write path must
   surface it as a typed reset outcome, never a dead worker. *)
let test_e2e_response_write_interrupted_by_reset () =
  with_server (fun port _ ->
      let before = outcome_count "reset" in
      let plan = Sim_net.plan ~seed:5 ~reset_recv_p:1.0 () in
      let fd = connect port in
      let c = Sim_net.attach plan fd in
      Sim_net.send c "GET /users/3/followers HTTP/1.1\r\nHost: mgq\r\n\r\n";
      (match Sim_net.recv c (Bytes.create 4096) with
      | _ -> Alcotest.fail "expected the plan to inject a reset"
      | exception Sim_net.Injected_reset { op = Sim_net.Recv; _ } -> ());
      check Alcotest.bool "reset typed as conn_outcome{reset}" true
        (await (fun () -> outcome_count "reset" >= before + 1));
      let s, _, _ = request port ~meth:"GET" ~target:"/healthz" () in
      check Alcotest.int "worker survived the reset" 200 s)

(* ------------------------------------------------------------------ *)
(* slow-client defence                                                *)
(* ------------------------------------------------------------------ *)

let with_deadline_server ~header_deadline_s ~body_deadline_s f =
  let app =
    App.create
      ~config:{ App.replicas = 1; policy = Router.Round_robin; admission = None; seed = 42 }
      (Lazy.force dataset)
  in
  let server =
    Server.serve
      ~config:
        {
          Server.default_config with
          Server.workers = 8;
          header_deadline_s;
          body_deadline_s;
        }
      ~handler:(App.handle app) ()
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f (Server.port server) server)

(* The acceptance test for the slowloris fix: a 1-byte-per-40ms
   attacker is evicted with a typed 408 while concurrent well-behaved
   requests keep their p99 within 3x the unsaturated baseline (with a
   25 ms absolute floor — same CI-noise guard as the serving bench). *)
let test_e2e_slowloris_evicted_408 () =
  with_deadline_server ~header_deadline_s:0.25 ~body_deadline_s:0.25 (fun port _ ->
      let before = outcome_count "timeout" in
      let sample_p99 n =
        let lat =
          Array.init n (fun _ ->
              let t0 = now_ns () in
              let s, _, _ = request port ~meth:"GET" ~target:"/users/3/followers" () in
              check Alcotest.int "well-behaved request served" 200 s;
              now_ns () - t0)
        in
        Array.sort compare lat;
        lat.(max 0 ((n * 99 / 100) - 1))
      in
      let unsaturated_p99 = sample_p99 30 in
      let attackers = 3 in
      let results = Array.make attackers `Still_connected in
      let threads =
        List.init attackers (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  Chaos.slowloris ~host:"127.0.0.1" ~port ~gap_s:0.04 ~give_up_s:3.0)
              ())
      in
      (* Sample while the attackers are mid-drip, holding workers. *)
      Thread.delay 0.05;
      let under_attack_p99 = sample_p99 30 in
      List.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          if r <> `Evicted_408 then Alcotest.failf "attacker %d was not evicted with a 408" i)
        results;
      check Alcotest.bool "server recorded the timeout evictions" true
        (await (fun () -> outcome_count "timeout" >= before + attackers));
      let bound = max (3 * max 1 unsaturated_p99) 25_000_000 in
      if under_attack_p99 > bound then
        Alcotest.failf
          "p99 under attack %.2f ms above bound %.2f ms (3x unsaturated %.2f ms)"
          (float_of_int under_attack_p99 /. 1e6)
          (float_of_int bound /. 1e6)
          (float_of_int unsaturated_p99 /. 1e6))

(* A slow but finite body must also be evicted once the body deadline
   lapses, with the 408 announcing Connection: close. *)
let test_e2e_slow_body_408 () =
  with_deadline_server ~header_deadline_s:0.2 ~body_deadline_s:0.2 (fun port _ ->
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          send_string fd
            "POST /cypher HTTP/1.1\r\nHost: mgq\r\nContent-Length: 1000\r\n\r\n";
          (* Drip a body byte every 100 ms: each read "makes progress",
             only the absolute deadline can end this. *)
          let status = ref 0 in
          (try
             for _ = 1 to 50 do
               send_string fd "x";
               match Unix.select [ fd ] [] [] 0.1 with
               | [ _ ], _, _ ->
                 let s, header, _ = read_response fd in
                 status := s;
                 (match header "connection" with
                 | Some v ->
                   check Alcotest.string "408 announces close" "close"
                     (String.lowercase_ascii v)
                 | None -> Alcotest.fail "408 carried no Connection header");
                 raise Exit
               | _ -> ()
             done
           with
          | Exit -> ()
          | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            Alcotest.fail "connection reset before the 408 arrived");
          check Alcotest.int "slow body evicted with 408" 408 !status))

(* ------------------------------------------------------------------ *)
(* resilient client                                                   *)
(* ------------------------------------------------------------------ *)

(* Client-side injected resets surface as typed outcomes in the
   report — percentile math keeps running, the sweep never aborts.
   With retries enabled the same faults are mostly absorbed. *)
let test_e2e_loadgen_typed_resets () =
  with_server (fun port _ ->
      let run retry =
        Loadgen.run
          {
            Loadgen.default_config with
            Loadgen.port;
            rate_per_s = 150.;
            duration_ns = 500_000_000;
            connections = 4;
            uids = Array.init 50 (fun i -> i);
            net = Some (Sim_net.plan ~seed:11 ~reset_send_p:0.15 ~reset_recv_p:0.15 ());
            retry;
          }
      in
      let bare = run None in
      check Alcotest.bool "faults surfaced as typed resets" true
        (bare.Loadgen.resets > 0);
      check Alcotest.int "no untyped errors" 0 bare.Loadgen.errors;
      check Alcotest.int "every request accounted" bare.Loadgen.sent
        (bare.Loadgen.ok + bare.Loadgen.rejected + bare.Loadgen.resets
       + bare.Loadgen.timeouts + bare.Loadgen.errors);
      let resilient = run (Some Loadgen.default_retry) in
      check Alcotest.bool "retries engaged" true (resilient.Loadgen.retries > 0);
      check Alcotest.bool "retry client converts resets into answers" true
        (resilient.Loadgen.ok > bare.Loadgen.ok
        || resilient.Loadgen.resets < bare.Loadgen.resets);
      check Alcotest.int "every request accounted (retry)" resilient.Loadgen.sent
        (resilient.Loadgen.ok + resilient.Loadgen.rejected + resilient.Loadgen.resets
       + resilient.Loadgen.timeouts + resilient.Loadgen.errors))

(* ------------------------------------------------------------------ *)
(* chaos campaign                                                     *)
(* ------------------------------------------------------------------ *)

(* Two tiny campaigns with one seed must agree line for line on the
   deterministic report section, and every oracle must hold. *)
let test_chaos_deterministic_and_passes () =
  let config =
    {
      Chaos.smoke_config with
      Chaos.seed = 9;
      users = 60;
      rate_per_s = 80.;
      baseline_ms = 300;
      fault_ms = 700;
      recovery_ms = 300;
      writes = 15;
      attackers = 2;
    }
  in
  let r1 = Chaos.run config in
  let r2 = Chaos.run config in
  check Alcotest.(list string) "deterministic report lines" r1.Chaos.lines r2.Chaos.lines;
  List.iter
    (fun (v : Mgq_util.Verdict.t) ->
      if not v.passed then Alcotest.failf "oracle %s failed: %s" v.name v.detail)
    (r1.Chaos.verdicts @ r2.Chaos.verdicts)

let () =
  Alcotest.run "mgq_server"
    [
      ( "http-parser",
        [
          Alcotest.test_case "parse GET" `Quick test_parse_get;
          Alcotest.test_case "parse POST body" `Quick test_parse_post_body;
          Alcotest.test_case "pipelined requests" `Quick test_pipelined_requests;
          Alcotest.test_case "split at every byte boundary" `Quick test_split_every_boundary;
          qtest prop_random_fragmentation;
          Alcotest.test_case "keep-alive negotiation" `Quick test_keep_alive_negotiation;
          Alcotest.test_case "malformed start line -> 400" `Quick test_malformed_start_line;
          Alcotest.test_case "malformed headers -> 400" `Quick test_malformed_headers;
          Alcotest.test_case "oversized headers -> 431" `Quick test_oversized_headers_431;
          Alcotest.test_case "body over cap -> 413" `Quick test_body_over_cap_413;
          Alcotest.test_case "protocol errors are sticky" `Quick test_error_is_sticky;
          Alcotest.test_case "percent decoding" `Quick test_percent_decode;
          Alcotest.test_case "response writer" `Quick test_response_writer;
          Alcotest.test_case "Content-Length 0 with pipelined follow-up" `Quick
            test_content_length_zero_pipelined;
          Alcotest.test_case "parser phase transitions" `Quick test_parser_phase_transitions;
        ] );
      ( "sim-net",
        [
          Alcotest.test_case "same seed, same fault schedule" `Quick
            test_sim_net_deterministic_schedule;
          Alcotest.test_case "trickle delivers every byte" `Quick
            test_sim_net_trickle_accounting;
          Alcotest.test_case "suspension keeps the schedule stable" `Quick
            test_sim_net_suspend_keeps_schedule;
          Alcotest.test_case "reset link closes exactly once" `Quick
            test_loadgen_reset_closes_link_once;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "basic routes" `Quick test_e2e_basic_routes;
          Alcotest.test_case "cypher endpoint" `Quick test_e2e_cypher;
          Alcotest.test_case "trace span chain" `Quick test_e2e_trace_chain;
          Alcotest.test_case "metrics endpoint" `Quick test_e2e_metrics_endpoint;
          Alcotest.test_case "deadline partial" `Quick test_e2e_deadline_partial;
          Alcotest.test_case "admission 429 + Retry-After" `Quick test_e2e_admission_429;
          Alcotest.test_case "keep-alive serves two requests" `Quick
            test_e2e_keep_alive_two_requests;
          Alcotest.test_case "protocol errors over the socket" `Quick
            test_e2e_protocol_errors_over_socket;
          Alcotest.test_case "graceful shutdown" `Quick test_e2e_graceful_shutdown;
          Alcotest.test_case "loadgen saturation sheds with Retry-After" `Quick
            test_e2e_loadgen_saturation;
          Alcotest.test_case "peer close mid-body is a typed abort" `Quick
            test_e2e_peer_close_mid_body;
          Alcotest.test_case "response write interrupted by reset" `Quick
            test_e2e_response_write_interrupted_by_reset;
          Alcotest.test_case "slowloris evicted with 408" `Quick
            test_e2e_slowloris_evicted_408;
          Alcotest.test_case "slow body evicted with 408" `Quick test_e2e_slow_body_408;
          Alcotest.test_case "loadgen types resets and retries them" `Quick
            test_e2e_loadgen_typed_resets;
          Alcotest.test_case "spliced read compiles once" `Quick
            test_e2e_spliced_compiles_once;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "tiny campaign is deterministic and passes" `Quick
            test_chaos_deterministic_and_passes;
        ] );
    ]
