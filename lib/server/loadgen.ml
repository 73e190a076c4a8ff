(* Socket load rig: drives a running server over real TCP connections
   with the same seeded workload mix as the discrete-event simulator
   (Sim_load), so simulated and measured shed knees are comparable.

   Two driving disciplines:

   - [Open]: arrivals follow a seeded Poisson process at the offered
     rate, independent of server speed. A generator thread releases
     requests on schedule into a queue drained by [connections] client
     threads, and latency is measured from the *scheduled* arrival —
     not from when a client thread got around to sending — so a slow
     server cannot suppress its own bad samples (coordinated
     omission).
   - [Closed]: each connection sends, waits, repeats. Throughput
     self-limits to the server's speed; useful for the keep-alive
     vs. reconnect comparison where per-request overhead is the
     subject.

   Resilience: the rig is also the reference *client*. Transport
   failures are typed (reset / timeout / other), never a crashed run —
   a mid-response ECONNRESET counts in the percentiles instead of
   aborting the sweep. With a [retry] policy the client behaves the
   way a production SDK should: reconnect on reset, back off with
   decorrelated jitter, honour Retry-After on 429, and retry *only*
   idempotent reads (every route the rig drives is a GET). Each
   logical request terminates in exactly one typed outcome whatever
   the network does to the attempts underneath it.

   Responses are read with a minimal client-side HTTP reader
   (status line + headers + Content-Length body). 200s count toward
   goodput when within the SLO; 429s are recorded as shed along with
   the smallest positive Retry-After seen. *)

module Rng = Mgq_util.Rng
module Retry = Mgq_util.Retry
module Summary = Mgq_util.Stats.Summary
module Workload = Mgq_queries.Workload
module Sim_load = Mgq_overload.Sim_load

type mode = Open | Closed

type retry = {
  rpolicy : Retry.policy;
  honour_retry_after : bool;  (** sleep out a 429's Retry-After, then re-issue *)
  max_retry_after_s : int;  (** give up instead of sleeping longer than this *)
}

let default_retry =
  {
    rpolicy =
      {
        Retry.default_policy with
        Retry.max_attempts = 4;
        base_delay_ns = 2_000_000;
        max_delay_ns = 200_000_000;
        jitter = Retry.Decorrelated;
      };
    honour_retry_after = true;
    max_retry_after_s = 2;
  }

type config = {
  host : string;
  port : int;
  seed : int;
  duration_ns : int;
  rate_per_s : float;  (** offered rate ([Open] mode only) *)
  connections : int;  (** client threads, one TCP connection each *)
  mode : mode;
  keep_alive : bool;  (** false = fresh TCP connection per request *)
  slo_ns : int;
  deadline_ms : int option;  (** sent as [X-Deadline-Ms] when set *)
  uids : int array;  (** user ids to target; drawn uniformly *)
  net : Sim_net.plan option;  (** client-side fault injection when set *)
  retry : retry option;  (** resilient-client behaviour when set *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    seed = 42;
    duration_ns = 2_000_000_000;
    rate_per_s = 200.;
    connections = 4;
    mode = Open;
    keep_alive = true;
    slo_ns = 50_000_000;
    deadline_ms = None;
    uids = [| 1 |];
    net = None;
    retry = None;
  }

type report = {
  offered_per_s : float;
  arrivals : int;  (** scheduled arrivals ([Closed]: requests sent) *)
  sent : int;
  ok : int;  (** HTTP 200 *)
  rejected : int;  (** HTTP 429 *)
  resets : int;  (** connection reset/closed mid-exchange (typed) *)
  timeouts : int;  (** client-side read timeout *)
  errors : int;  (** other transport failures + non-200/429 statuses *)
  retries : int;  (** extra attempts made underneath logical requests *)
  good : int;  (** 200s within the SLO *)
  goodput_per_s : float;
  p50_ns : int;
  p99_ns : int;
  min_retry_after_s : int;  (** smallest Retry-After on a 429; 0 if none seen *)
  max_backlog : int;  (** peak depth of the open-loop release queue *)
  wall_ns : int;
}

let now_ns () = Int64.to_int (Mgq_util.Stats.Timing.now_ns ())

(* ------------------------------------------------------------------ *)
(* request construction: the Sim_load mix mapped onto routes          *)
(* ------------------------------------------------------------------ *)

let path_of rng cls uid =
  match cls with
  | Workload.Cheap ->
    if Rng.bool rng then Printf.sprintf "/users/%d/followers" uid
    else Printf.sprintf "/users/%d/followees" uid
  | Workload.Moderate ->
    if Rng.bool rng then Printf.sprintf "/users/%d/timeline" uid
    else Printf.sprintf "/users/%d/hashtags" uid
  | Workload.Expensive -> Printf.sprintf "/users/%d/recommendations?n=5" uid

let request_bytes config ~path =
  let b = Buffer.create 128 in
  Buffer.add_string b ("GET " ^ path ^ " HTTP/1.1\r\n");
  Buffer.add_string b "Host: mgq\r\n";
  (match config.deadline_ms with
  | Some ms -> Buffer.add_string b (Printf.sprintf "X-Deadline-Ms: %d\r\n" ms)
  | None -> ());
  if not config.keep_alive then Buffer.add_string b "Connection: close\r\n";
  Buffer.add_string b "\r\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* minimal HTTP client with typed transport errors                    *)
(* ------------------------------------------------------------------ *)

type transport_error = Reset | Timeout | Other of string

exception Transport of transport_error

let error_of_unix = function
  | Unix.ECONNRESET | Unix.EPIPE | Unix.ECONNABORTED | Unix.ESHUTDOWN -> Reset
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT -> Timeout
  | err -> Other (Unix.error_message err)

(* A connection plus its transport: plain fd I/O, or routed through a
   [Sim_net] plan when the rig is the one injecting faults. [close]
   closes the fd exactly once, even after an injected reset already
   closed it: by then the number may belong to another socket. *)
type link = {
  send : string -> unit;
  recv : bytes -> int;
  close : unit -> unit;
}

let plain_send fd s =
  let n = String.length s in
  let off = ref 0 in
  try
    while !off < n do
      match Unix.write_substring fd s !off (n - !off) with
      | w -> off := !off + w
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  with Unix.Unix_error (err, _, _) -> raise (Transport (error_of_unix err))

let plain_recv fd buf =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
  | exception Unix.Unix_error (err, _, _) -> raise (Transport (error_of_unix err))

let connect config =
  Lazy.force Server.ignore_sigpipe;
  let addr = Unix.inet_addr_of_string config.host in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (addr, config.port));
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
     (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ())
   with Unix.Unix_error (err, _, _) ->
     (try Unix.close fd with _ -> ());
     raise (Transport (error_of_unix err)));
  match config.net with
  | None ->
    let closed = ref false in
    let close () =
      if not !closed then begin
        closed := true;
        try Unix.close fd with _ -> ()
      end
    in
    { send = plain_send fd; recv = plain_recv fd; close }
  | Some plan ->
    let c = Sim_net.attach plan fd in
    {
      send =
        (fun s ->
          try Sim_net.send c s
          with Unix.Unix_error (err, _, _) -> raise (Transport (error_of_unix err)));
      recv =
        (fun buf ->
          try Sim_net.recv c buf with
          | Unix.Unix_error (Unix.EINTR, _, _) -> 0
          | Unix.Unix_error (err, _, _) -> raise (Transport (error_of_unix err)));
      close = (fun () -> Sim_net.close c);
    }

(* Read one response: status + headers + Content-Length body. Only one
   request is ever in flight per connection, so no inter-response
   buffering is needed. A peer close mid-response is a reset, not a
   generic error: the server (or the fault plan) tore the exchange. *)
let read_response link =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 4096 in
  let read_more () =
    match link.recv chunk with
    | 0 -> raise (Transport Reset)
    | n -> Buffer.add_subbytes buf chunk 0 n
  in
  let header_end () =
    let s = Buffer.contents buf in
    let rec scan i =
      if i + 3 >= String.length s then None
      else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
      then Some (i + 4)
      else scan (i + 1)
    in
    scan 0
  in
  let rec wait_headers () =
    match header_end () with
    | Some e -> e
    | None ->
      if Buffer.length buf > 64 * 1024 then
        raise (Transport (Other "response headers too large"));
      read_more ();
      wait_headers ()
  in
  let hdr_end = wait_headers () in
  let s = Buffer.contents buf in
  let head = String.sub s 0 hdr_end in
  let lines = String.split_on_char '\n' head in
  let status =
    match lines with
    | first :: _ -> (
      (* "HTTP/1.1 200 OK" *)
      match String.split_on_char ' ' (String.trim first) with
      | _ :: code :: _ -> (
        try int_of_string code with _ -> raise (Transport (Other "bad status")))
      | _ -> raise (Transport (Other "bad status line")))
    | [] -> raise (Transport (Other "empty response"))
  in
  let header name =
    let name = String.lowercase_ascii name in
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | None -> None
        | Some i ->
          if String.lowercase_ascii (String.trim (String.sub line 0 i)) = name then
            Some
              (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
          else None)
      lines
  in
  let content_length =
    match header "content-length" with
    | Some v -> (
      try int_of_string v with _ -> raise (Transport (Other "bad content-length")))
    | None -> 0
  in
  let want = hdr_end + content_length in
  while Buffer.length buf < want do
    read_more ()
  done;
  let retry_after =
    match header "retry-after" with
    | Some v -> ( try int_of_string v with _ -> 0)
    | None -> 0
  in
  let keep =
    match header "connection" with
    | Some v -> String.lowercase_ascii v <> "close"
    | None -> true
  in
  (status, retry_after, keep)

(* ------------------------------------------------------------------ *)
(* shared result recording                                            *)
(* ------------------------------------------------------------------ *)

type stats = {
  smutex : Mutex.t;
  latencies : Summary.t;
  mutable sent : int;
  mutable ok : int;
  mutable rejected : int;
  mutable resets : int;
  mutable timeouts : int;
  mutable errors : int;
  mutable retries : int;
  mutable good : int;
  mutable min_retry_after_s : int;  (* max_int = none seen *)
}

let stats_create () =
  {
    smutex = Mutex.create ();
    latencies = Summary.create ();
    sent = 0;
    ok = 0;
    rejected = 0;
    resets = 0;
    timeouts = 0;
    errors = 0;
    retries = 0;
    good = 0;
    min_retry_after_s = max_int;
  }

(* One logical request, one typed outcome — the client-side half of
   the chaos oracle. *)
let record st config ~latency_ns outcome =
  Mutex.lock st.smutex;
  st.sent <- st.sent + 1;
  (match outcome with
  | `Ok ->
    st.ok <- st.ok + 1;
    Summary.add st.latencies (float_of_int latency_ns);
    if latency_ns <= config.slo_ns then st.good <- st.good + 1
  | `Rejected retry_after_s ->
    st.rejected <- st.rejected + 1;
    if retry_after_s > 0 then
      st.min_retry_after_s <- min st.min_retry_after_s retry_after_s
  | `Reset -> st.resets <- st.resets + 1
  | `Timeout -> st.timeouts <- st.timeouts + 1
  | `Error -> st.errors <- st.errors + 1);
  Mutex.unlock st.smutex

let record_retry st =
  Mutex.lock st.smutex;
  st.retries <- st.retries + 1;
  Mutex.unlock st.smutex

let close_link l = l.close ()

(* One logical request over a (possibly reused) connection. Returns
   the connection to use next, or None when it must be re-opened.

   With [config.retry] this is the resilient client: a reset or
   timeout reconnects and re-issues after a decorrelated-jitter
   backoff; a 429 whose Retry-After fits the budget is slept out and
   re-issued. Retrying is safe only because every request the rig
   sends is an idempotent GET — a non-idempotent method must never
   take this path. Whatever happens, exactly one outcome is recorded
   per logical request. *)
let issue config st ~rng ~latency_from conn ~path =
  let max_attempts =
    match config.retry with
    | None -> 1
    | Some r -> max 1 r.rpolicy.Retry.max_attempts
  in
  let transport_retryable = function Reset | Timeout -> true | Other _ -> false in
  let rec go ~attempt ~prev_delay_ns conn =
    let result =
      match
        let link = match conn with Some l -> l | None -> connect config in
        (link, try Ok (link.send (request_bytes config ~path); read_response link)
               with e -> Error e)
      with
      | link, Ok (status, retry_after, server_keep) ->
        `Done (status, retry_after, server_keep, link)
      | link, Error e ->
        close_link link;
        (match e with
        | Transport te -> `Failed te
        | Sim_net.Injected_reset _ -> `Failed Reset
        | e -> raise e)
      | exception Transport te -> `Failed te (* connect itself failed *)
      | exception Sim_net.Injected_reset _ -> `Failed Reset
    in
    match result with
    | `Done (status, retry_after, server_keep, link) -> (
      let latency = now_ns () - latency_from in
      let conn' =
        if config.keep_alive && server_keep then Some link
        else begin
          close_link link;
          None
        end
      in
      match status with
      | 200 ->
        record st config ~latency_ns:latency `Ok;
        conn'
      | 429 -> (
        match config.retry with
        | Some r
          when r.honour_retry_after && attempt < max_attempts && retry_after > 0
               && retry_after <= r.max_retry_after_s ->
          record_retry st;
          Thread.delay (float_of_int retry_after);
          go ~attempt:(attempt + 1) ~prev_delay_ns conn'
        | _ ->
          record st config ~latency_ns:latency (`Rejected retry_after);
          conn')
      | _ ->
        record st config ~latency_ns:latency `Error;
        conn')
    | `Failed te ->
      if attempt < max_attempts && transport_retryable te then begin
        record_retry st;
        let policy = (Option.get config.retry).rpolicy in
        let d = Retry.delay_ns policy ~prev_ns:prev_delay_ns (Some rng) ~attempt in
        Thread.delay (float_of_int d /. 1e9);
        go ~attempt:(attempt + 1) ~prev_delay_ns:d None
      end
      else begin
        let latency = now_ns () - latency_from in
        record st config ~latency_ns:latency
          (match te with Reset -> `Reset | Timeout -> `Timeout | Other _ -> `Error);
        None
      end
  in
  go ~attempt:1 ~prev_delay_ns:0 conn

(* ------------------------------------------------------------------ *)
(* open loop                                                          *)
(* ------------------------------------------------------------------ *)

type job = { scheduled_ns : int; path : string }

let run_open config st =
  let jobs = Queue.create () in
  let jmutex = Mutex.create () in
  let jcond = Condition.create () in
  let done_ = ref false in
  let arrivals = ref 0 in
  let max_backlog = ref 0 in
  let worker i =
    (* Per-thread rng: backoff jitter draws must not contend or
       correlate across client threads. *)
    let rng = Rng.create (config.seed + 0x9e37 + (i * 7919)) in
    let conn = ref None in
    let rec loop () =
      Mutex.lock jmutex;
      while Queue.is_empty jobs && not !done_ do
        Condition.wait jcond jmutex
      done;
      if Queue.is_empty jobs then begin
        Mutex.unlock jmutex;
        match !conn with Some l -> close_link l | None -> ()
      end
      else begin
        let job = Queue.pop jobs in
        Mutex.unlock jmutex;
        conn := issue config st ~rng ~latency_from:job.scheduled_ns !conn ~path:job.path;
        loop ()
      end
    in
    loop ()
  in
  let pool = List.init (max 1 config.connections) (fun i -> Thread.create worker i) in
  (* Generator: release every arrival whose scheduled time has come.
     Seeded exactly like Sim_load: one rng for gaps + classes, a split
     for per-request variety. *)
  let arrival_rng = Rng.create config.seed in
  let detail_rng = Rng.split arrival_rng in
  let start = now_ns () in
  let horizon = start + config.duration_ns in
  let next_at = ref (start + Sim_load.interarrival_ns arrival_rng config.rate_per_s) in
  while !next_at <= horizon do
    let now = now_ns () in
    if !next_at > now then
      Thread.delay (Float.min 0.002 (float_of_int (!next_at - now) /. 1e9))
    else begin
      let cls = Sim_load.draw_class arrival_rng in
      let uid = config.uids.(Rng.int detail_rng (Array.length config.uids)) in
      let job = { scheduled_ns = !next_at; path = path_of detail_rng cls uid } in
      incr arrivals;
      Mutex.lock jmutex;
      Queue.push job jobs;
      max_backlog := max !max_backlog (Queue.length jobs);
      Condition.signal jcond;
      Mutex.unlock jmutex;
      next_at := !next_at + Sim_load.interarrival_ns arrival_rng config.rate_per_s
    end
  done;
  Mutex.lock jmutex;
  done_ := true;
  Condition.broadcast jcond;
  Mutex.unlock jmutex;
  List.iter Thread.join pool;
  (!arrivals, !max_backlog, now_ns () - start)

(* ------------------------------------------------------------------ *)
(* closed loop                                                        *)
(* ------------------------------------------------------------------ *)

let run_closed config st =
  let start = now_ns () in
  let horizon = start + config.duration_ns in
  let worker i =
    let rng = Rng.create (config.seed + (i * 7919)) in
    let conn = ref None in
    while now_ns () < horizon do
      let cls = Sim_load.draw_class rng in
      let uid = config.uids.(Rng.int rng (Array.length config.uids)) in
      let path = path_of rng cls uid in
      conn := issue config st ~rng ~latency_from:(now_ns ()) !conn ~path
    done;
    match !conn with Some l -> close_link l | None -> ()
  in
  let pool = List.init (max 1 config.connections) (fun i -> Thread.create worker i) in
  List.iter Thread.join pool;
  let wall = now_ns () - start in
  (st.sent, 0, wall)

(* ------------------------------------------------------------------ *)

let run config =
  if Array.length config.uids = 0 then invalid_arg "Loadgen.run: uids is empty";
  if config.mode = Open && config.rate_per_s <= 0. then
    invalid_arg "Loadgen.run: rate_per_s";
  let st = stats_create () in
  let arrivals, max_backlog, wall_ns =
    match config.mode with
    | Open -> run_open config st
    | Closed -> run_closed config st
  in
  let pct p =
    if Summary.count st.latencies = 0 then 0
    else int_of_float (Summary.percentile st.latencies p)
  in
  {
    offered_per_s =
      (match config.mode with
      | Open -> config.rate_per_s
      | Closed -> float_of_int st.sent /. (float_of_int (max 1 wall_ns) /. 1e9));
    arrivals;
    sent = st.sent;
    ok = st.ok;
    rejected = st.rejected;
    resets = st.resets;
    timeouts = st.timeouts;
    errors = st.errors;
    retries = st.retries;
    good = st.good;
    goodput_per_s = float_of_int st.good /. (float_of_int (max 1 wall_ns) /. 1e9);
    p50_ns = pct 50.;
    p99_ns = pct 99.;
    min_retry_after_s = (if st.min_retry_after_s = max_int then 0 else st.min_retry_after_s);
    max_backlog;
    wall_ns;
  }
