module Db = Mgq_neo.Db
module Wal = Mgq_neo.Wal
module Rng = Mgq_util.Rng
module Budget = Mgq_util.Budget
module Fault = Mgq_storage.Fault
module Sim_disk = Mgq_storage.Sim_disk
module Obs = Mgq_obs.Obs

let m_writes = Obs.counter "cluster.writes"
let m_reads = Obs.counter "cluster.reads"
let m_ticks = Obs.counter "cluster.ticks"
let m_promotions = Obs.counter "cluster.promotions"

exception Unavailable of string

type config = {
  replicas : int;
  seed : int;
  lag : Replica.lag;
  drop_p : float;
  sync_replicas : int;
  policy : Router.policy;
  wait_tick_ns : int;
  max_wait_ticks : int;
  pool_pages : int option;
}

let default_config =
  {
    replicas = 2;
    seed = 42;
    lag = Replica.Immediate;
    drop_p = 0.0;
    sync_replicas = 1;
    policy = Router.Round_robin;
    wait_tick_ns = 1_000_000;
    max_wait_ticks = 10_000;
    pool_pages = None;
  }

type t = {
  config : config;
  mutable primary : Db.t;
  mutable replicas : Replica.t array;
  mutable router : Router.t;
  rng : Rng.t;
  sessions : (int, Router.session) Hashtbl.t;
  mutable now : int;
  mutable acked_lsn : int;
  mutable epoch : int;
  mutable primary_down : bool;
}

let create ?(config = default_config) ?primary () =
  if config.replicas < 0 then invalid_arg "Cluster.create: negative replica count";
  if config.sync_replicas > config.replicas then
    invalid_arg "Cluster.create: sync_replicas exceeds replica count";
  let primary =
    match primary with Some db -> db | None -> Db.create ?pool_pages:config.pool_pages ()
  in
  let rng = Rng.create config.seed in
  (* Every replica starts as a base backup of the primary at its head
     LSN; shipping carries only what commits after this point. *)
  let replicas =
    Array.init config.replicas (fun id ->
        Replica.create ~id ~lag:config.lag ~drop_p:config.drop_p (Rng.split rng)
          (Db.clone primary))
  in
  {
    config;
    primary;
    replicas;
    router = Router.create config.policy ~n_replicas:config.replicas;
    rng;
    sessions = Hashtbl.create 64;
    now = 0;
    acked_lsn = Db.last_lsn primary;
    epoch = 0;
    primary_down = false;
  }

let primary t = t.primary
let replicas t = t.replicas
let router t = t.router
let now t = t.now
let epoch t = t.epoch
let acked_lsn t = t.acked_lsn
let head_lsn t = Db.last_lsn t.primary

let session t sid =
  match Hashtbl.find_opt t.sessions sid with
  | Some s -> s
  | None ->
    let s = Router.session sid in
    Hashtbl.replace t.sessions sid s;
    s

(* Ship the primary's WAL suffix past [r]'s receipt mark, frame by
   frame, stopping at the first dropped shipment (the rest is resent
   on a later attempt — receipt is strictly in order). Frames travel
   as their raw payload bytes; the replica decodes at apply time. *)
let ship_to t r =
  match Db.wal t.primary with
  | None -> ()
  | Some w -> (
    try
      ignore
        (Wal.fold_frames_from w ~lsn:(Replica.received_lsn r)
           (fun () ~lsn payload ->
             if not (Replica.receive r ~now:t.now ~lsn payload) then raise Exit)
           ())
    with Exit -> ())

let apply_all t =
  let head = head_lsn t in
  Array.iter (fun r -> ignore (Replica.apply_ready r ~now:t.now ~head_lsn:head)) t.replicas

let tick t =
  Obs.Counter.incr m_ticks;
  t.now <- t.now + 1;
  if not t.primary_down then Array.iter (fun r -> ship_to t r) t.replicas;
  apply_all t

let write t ?budget ~session f =
  if t.primary_down then raise (Unavailable "primary is down");
  let result =
    try Db.with_tx t.primary (fun () -> f t.primary)
    with e ->
      (* A crash landing inside the commit takes the primary down; the
         transaction is not acknowledged (even if its frame happens to
         be durable — the classic commit-ack ambiguity). *)
      if Sim_disk.crashed (Db.disk t.primary) then t.primary_down <- true;
      raise e
  in
  (* Once committed, the frame is durable: deadline charges below keep
     the caller's budget honest across resend rounds, but exhaustion
     must not un-commit — the budget is left exhausted for the caller's
     next charge to trip instead of raising here. *)
  let charge_tick () =
    match budget with
    | None -> ()
    | Some b -> ( try Budget.charge ~ns:t.config.wait_tick_ns b with Budget.Exhausted _ -> ())
  in
  let lsn = Db.last_lsn t.primary in
  t.now <- t.now + 1;
  charge_tick ();
  (* Semi-synchronous shipping: acknowledge only once [sync_replicas]
     replicas have journaled the frame. Dropped shipments are resent,
     each resend round costing a tick (and a slice of the caller's
     deadline, when one is attached). *)
  if t.config.sync_replicas > 0 then begin
    let received () =
      Array.fold_left
        (fun n r -> if Replica.received_lsn r >= lsn then n + 1 else n)
        0 t.replicas
    in
    let rounds = ref 0 in
    Array.iter (fun r -> ship_to t r) t.replicas;
    while received () < t.config.sync_replicas do
      incr rounds;
      if !rounds > 100_000 then failwith "Cluster.write: sync quorum unreachable";
      t.now <- t.now + 1;
      charge_tick ();
      Array.iter (fun r -> ship_to t r) t.replicas
    done
  end;
  t.acked_lsn <- lsn;
  session.Router.high_water <- lsn;
  session.Router.writes <- session.Router.writes + 1;
  Obs.Counter.incr m_writes;
  apply_all t;
  result

let choose t ?budget ~session () =
  Obs.Trace.with_span "router.route"
    ~attrs:[ ("policy", Router.policy_to_string (Router.policy_of t.router)) ]
  @@ fun () ->
  let applied () = Array.map Replica.applied_lsn t.replicas in
  let waited = ref 0 in
  let wait () =
    let deadline_ok =
      match budget with
      | Some b -> (
        try
          Budget.charge ~ns:t.config.wait_tick_ns b;
          true
        with Budget.Exhausted _ -> false)
      | None -> !waited < t.config.max_wait_ticks
    in
    if deadline_ok then begin
      incr waited;
      tick t;
      true
    end
    else false
  in
  let choice = Router.route t.router ~session ~head_lsn:(head_lsn t) ~applied ~wait in
  (match choice with
  | Router.Serve_replica i -> Obs.Trace.note "choice" (Printf.sprintf "replica-%d" i)
  | Router.Serve_primary -> Obs.Trace.note "choice" "primary");
  if !waited > 0 then Obs.Trace.note_int "wait_ticks" !waited;
  choice

let serve t choice f =
  match choice with
  | Router.Serve_replica i ->
    Obs.Trace.with_span "replica.serve" ~attrs:[ ("replica", string_of_int i) ]
    @@ fun () -> f (Replica.db t.replicas.(i))
  | Router.Serve_primary ->
    if t.primary_down then
      raise (Unavailable "primary is down and no replica satisfies read-your-writes");
    Obs.Trace.with_span "primary.serve" @@ fun () -> f t.primary

let read_routed t ?budget ~session f =
  Obs.Trace.with_span "cluster.read" @@ fun () ->
  Obs.Counter.incr m_reads;
  let choice = choose t ?budget ~session () in
  (serve t choice f, choice)

let read t ?budget ~session f = fst (read_routed t ?budget ~session f)

let kill_primary t ~crash_at_write =
  Sim_disk.arm_faults (Db.disk t.primary)
    (Fault.plan ~seed:(Rng.int t.rng 1_000_000) ~crash_at_write ())

type promotion = {
  new_primary : int;
  tail_applied : int;
  replayed : int;
  stop : Wal.stop;
  lost_acked : int;
  downtime_ticks : int;
}

let promote t =
  if Array.length t.replicas = 0 then failwith "Cluster.promote: no replicas";
  t.primary_down <- true;
  let t0 = t.now in
  (* The most advanced replica by journaled (received) LSN. Receipt is
     strictly in order, so this replica holds every frame any replica
     holds — in particular every acknowledged commit when the receipt
     quorum is at least one. *)
  let best = ref 0 in
  Array.iteri
    (fun i r ->
      if Replica.received_lsn r > Replica.received_lsn t.replicas.(!best) then best := i)
    t.replicas;
  let r = t.replicas.(!best) in
  (* Replay the WAL tail: journaled-but-unapplied frames, each costing
     a tick of downtime. *)
  let tail = Replica.catch_up r in
  t.now <- t.now + tail;
  (* Crash-consistency pass, reusing the recovery oracle: rebuild the
     promoted instance from its own WAL and serve from the rebuilt
     copy. A healthy replica's log must scan Clean and reproduce its
     applied prefix exactly. *)
  let recovered, report = Db.recover_report (Replica.db r) in
  t.now <- t.now + 1;
  let lost = max 0 (t.acked_lsn - Db.last_lsn recovered) in
  t.primary <- recovered;
  t.primary_down <- false;
  t.epoch <- t.epoch + 1;
  Obs.Counter.incr m_promotions;
  t.replicas <-
    Array.of_list (List.filteri (fun i _ -> i <> !best) (Array.to_list t.replicas));
  t.router <- Router.create (Router.policy_of t.router) ~n_replicas:(Array.length t.replicas);
  {
    new_primary = Replica.id r;
    tail_applied = tail;
    replayed = report.Db.replayed;
    stop = report.Db.stop;
    lost_acked = lost;
    downtime_ticks = t.now - t0;
  }
