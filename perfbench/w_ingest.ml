(* ingest-mix: the only workload that writes. Stream events (tweets,
   follows, unfollows, new users) are applied one transaction each
   through Live_neo, with core-API reads of the growing store mixed
   in and a fixed number of checkpoints, after each of which reads
   take the CSR + overlay path. *)

open Common
module Contexts = Mgq_queries.Contexts
module Q_neo_api = Mgq_queries.Q_neo_api
module Results = Mgq_queries.Results
module Stream = Mgq_twitter.Stream
module Live_neo = Mgq_twitter.Live.Live_neo
module Schema = Mgq_twitter.Schema
module Obs = Mgq_obs.Obs

let per_second = 24_000
let warmup = 2_000
let read_per_mille = 200
let checkpoints = 3
let setups = 5

let build cfg =
  let d, load_s = time_s (fun () -> load_crawl cfg) in
  let (ctx, live), import_s =
    time_s (fun () ->
        let ctx = Contexts.build_neo d in
        ( ctx,
          Live_neo.attach ctx.Contexts.db ~users:ctx.Contexts.users ~tweets:ctx.Contexts.tweets
            ~hashtags:ctx.Contexts.hashtags d ))
  in
  (ctx, live, load_s, import_s)

(* Reads keep one int each, so the stored answers stay small: a hash
   of the followee uids for Q2.1, the tweet count for Q2.2. *)
let hash_ids ids = List.fold_left (fun h x -> (h * 1_000_003) lxor x) (List.length ids) ids

let ids_of = function Results.Ids ids -> ids | r -> failwith ("unexpected answer " ^ Results.to_string r)

let kind_of = function
  | Stream.New_tweet _ -> "new_tweet"
  | Stream.New_follow _ -> "new_follow"
  | Stream.Unfollow _ -> "unfollow"
  | Stream.New_user _ -> "new_user"

(* Executes op [i]; returns the read's answer (0 for writes). *)
let exec cfg ctx live (op : Opgen.ingest) =
  match op with
  | Opgen.Event e ->
    Live_neo.apply live e;
    0
  | Opgen.Read_followees uid -> hash_ids (ids_of (Q_neo_api.q2_1 ctx ~uid))
  | Opgen.Read_timeline uid -> List.length (ids_of (Q_neo_api.q2_2 ctx ~uid))
  | Opgen.Checkpoint ->
    Db.checkpoint ctx.Contexts.db (Filename.concat cfg.tmp "ingest.snapshot");
    0

(* Replays the ops into Stream.Model and checks every read against the
   model at that point, then the final store against the final model. *)
let oracle (d : Dataset.t) ctx ops answers errors =
  let m = Stream.Model.of_dataset d in
  let outcomes =
    Array.mapi
      (fun i (op : Opgen.ingest) ->
        match Hashtbl.find_opt errors i with
        | Some msg -> Outcome.Raised msg
        | None -> (
          let expect want =
            if answers.(i) = want then Outcome.Correct
            else Outcome.Wrong (Printf.sprintf "read answered %d, model says %d" answers.(i) want)
          in
          match op with
          | Opgen.Event e ->
            Stream.Model.apply m e;
            Outcome.Correct
          | Opgen.Read_followees uid -> expect (hash_ids (Stream.Model.followees m uid))
          | Opgen.Read_timeline uid ->
            expect
              (List.fold_left (fun acc f -> acc + Stream.Model.tweet_count m f) 0
                 (Stream.Model.followees m uid))
          | Opgen.Checkpoint -> Outcome.Correct))
      ops
  in
  let db = ctx.Contexts.db in
  let final =
    let problems = ref [] in
    let follows = Db.edge_type_count db Schema.follows in
    if follows <> Stream.Model.follows_count m then
      problems := Printf.sprintf "follows %d, model %d" follows (Stream.Model.follows_count m) :: !problems;
    for uid = 0 to Stream.Model.n_users m - 1 do
      match Q_neo_api.node_of_uid ctx uid with
      | None -> problems := Printf.sprintf "user %d missing" uid :: !problems
      | Some node ->
        if ids_of (Q_neo_api.q2_1 ctx ~uid) <> Stream.Model.followees m uid then
          problems := Printf.sprintf "followees of %d differ" uid :: !problems;
        let tweets = Seq.length (Db.neighbors db node ~etype:Schema.posts Mgq_core.Types.Out) in
        if tweets <> Stream.Model.tweet_count m uid then
          problems := Printf.sprintf "tweet count of %d differs" uid :: !problems
    done;
    match !problems with
    | [] -> Outcome.Correct
    | p :: _ -> Outcome.Wrong (Printf.sprintf "final store: %d problems, e.g. %s" (List.length !problems) p)
  in
  Array.append outcomes [| final |]

let counter name = Obs.Counter.value (Obs.counter name)

let run cfg =
  let n = warmup + (per_second * cfg.seconds) in
  let ops =
    let d = crawl cfg in
    write_crawl cfg d;
    Opgen.ingest_ops ~seed:cfg.seed d ~read_per_mille ~warmup ~checkpoints ~count:n
  in
  (* The generator's crawl is garbage from here on; what stays resident
     of the benchmark's own is the op list. *)
  Gc.compact ();
  let rss_before_build = Procfs.rss_mb "self" in
  let ctx, live, load_s, import_s = build cfg in
  let answers = Array.make n 0 in
  let errors = Hashtbl.create 8 in
  let pool = Sim_disk.pool_capacity (Db.disk ctx.Contexts.db) in
  let pages0 = Sim_disk.page_count (Db.disk ctx.Contexts.db) in
  let lat, wall, steal =
    run_ops ~warmup ~n (fun i ->
        match exec cfg ctx live ops.(i) with
        | a -> answers.(i) <- a
        | exception e -> Hashtbl.replace errors i (Printexc.to_string e))
  in
  let rss = Procfs.peak_rss_mb "self" in
  let pages1 = Sim_disk.page_count (Db.disk ctx.Contexts.db) in
  (* The oracle starts from the files the store was loaded from. *)
  let outcomes = oracle (load_crawl cfg) ctx ops answers errors in
  let meta =
    [
      ("warmup_ops", string_of_int warmup);
      ("rss_before_build_mb", Printf.sprintf "%.1f" rss_before_build);
      ("timed_ops", string_of_int (n - warmup));
      ("store_pages", Printf.sprintf "%d->%d" pages0 pages1);
      ("pool_pages", string_of_int pool);
      ("checkpoints", string_of_int checkpoints);
      ("shards", "none");
      ("server_workers", "none");
      ("steal_ticks", string_of_int steal);
    ]
  in
  let layers, self_check =
    if not cfg.trace then ([], None)
    else begin
      (* A fresh store, the same op list, every call wrapped in a span. *)
      Gc.compact ();
      let ctx, live, load_s, import_s = build cfg in
      let db = ctx.Contexts.db in
      for i = 0 to warmup - 1 do
        ignore (exec cfg ctx live ops.(i))
      done;
      let spans = Spans.create () in
      let wal_bytes0 = counter "wal.append_bytes" and appends0 = counter "wal.appends"
      and catalog0 = counter "catalog.events" in
      let cost0 = cost_of db in
      let events = ref 0 and reads_after_ckpt = ref 0 and read_after_ns = ref 0 in
      let checkpointed = ref false in
      let t0 = Procfs.now_ns () in
      for i = warmup to n - 1 do
        let op = ops.(i) in
        let name =
          match op with
          | Opgen.Event e ->
            incr events;
            "live.apply." ^ kind_of e
          | Opgen.Read_followees _ | Opgen.Read_timeline _ -> "neo.read"
          | Opgen.Checkpoint -> "checkpoint"
        in
        Spans.with_span spans ~op:i "op" (fun () ->
            let r0 = Procfs.now_ns () in
            ignore (Spans.with_span spans ~op:i name (fun () -> exec cfg ctx live op));
            if name = "neo.read" && !checkpointed then begin
              incr reads_after_ckpt;
              read_after_ns := !read_after_ns + (Procfs.now_ns () - r0)
            end);
        if op = Opgen.Checkpoint then checkpointed := true
      done;
      let traced_wall = float_of_int (Procfs.now_ns () - t0) /. 1e9 in
      let timed = n - warmup in
      let totals = Spans.self_times spans in
      let mean name =
        match List.find_opt (fun (k, _, _) -> k = name) totals with
        | Some (_, ns, c) -> mean_us ns c
        | None -> 0.
      in
      let per_event x = float_of_int x /. float_of_int (max 1 !events) in
      let layer_sum = List.fold_left (fun acc (_, ns, _) -> acc +. mean_us ns timed) 0. totals in
      let ok, msg = self_check ~layer_sum_us:layer_sum ~untraced_us:(Pstats.mean lat /. 1e3) in
      Spans.write_tsv spans (Filename.concat cfg.out "ingest-mix.spans.tsv");
      ( [
          ("setup.load_s", load_s);
          ("setup.import_s", import_s);
          ("live.apply_us.new_tweet", mean "live.apply.new_tweet");
          ("live.apply_us.new_follow", mean "live.apply.new_follow");
          ("live.apply_us.unfollow", mean "live.apply.unfollow");
          ("live.apply_us.new_user", mean "live.apply.new_user");
          ("wal.bytes_per_event", per_event (counter "wal.append_bytes" - wal_bytes0));
          ("wal.appends_per_event", per_event (counter "wal.appends" - appends0));
          ("catalog.events_per_event", per_event (counter "catalog.events" - catalog0));
          ("checkpoint.ms", mean "checkpoint" /. 1e3);
          ("neo.csr_bytes", float_of_int (Db.adjacency_segment_bytes db));
          ("ingest.read_us", mean_us !read_after_ns !reads_after_ckpt);
          ("neo.api_us", mean "neo.read");
          ("trace.overhead_ratio", traced_wall /. wall);
        ]
        @ storage_layers (Cost_model.sub_counters (cost_of db) cost0) ~ops:timed,
        Some (ok, msg) )
    end
  in
  let more =
    List.init (if cfg.trace then 0 else setups - 1) (fun _ ->
        Gc.compact ();
        let _, _, load_s, import_s = build cfg in
        load_s +. import_s)
  in
  {
    setups_s = (load_s +. import_s) :: more;
    latencies_ns = lat;
    timed_wall_s = wall;
    outcomes;
    peak_rss_mb = rss;
    meta;
    layers;
    self_check;
  }
