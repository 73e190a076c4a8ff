(* Shared shapes for one benchmark run and the helpers every workload
   uses to produce them. *)

module Dataset = Mgq_twitter.Dataset
module Generator = Mgq_twitter.Generator
module Source_files = Mgq_twitter.Source_files
module Cost_model = Mgq_storage.Cost_model
module Sim_disk = Mgq_storage.Sim_disk
module Db = Mgq_neo.Db

(* Every workload runs over a generated crawl of this many users. *)
let users = 20_000

type config = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  spec : string;  (** BENCHMARK.json: the metric names and units *)
  mgq : string;  (** path of the mgq executable (HTTP workloads) *)
  tmp : string;  (** per-run scratch directory: TSV files, checkpoints *)
  out : string;  (** where the traced run writes its spans *)
}

type result = {
  setups_s : float list;  (** one entry per set-up performed *)
  latencies_ns : float array;  (** timed ops only *)
  timed_wall_s : float;
  outcomes : Outcome.t array;  (** every op, warm-up included *)
  peak_rss_mb : float;
  meta : (string * string) list;
  layers : (string * float) list;  (** per-layer metrics (traced run) *)
  self_check : (bool * string) option;  (** traced run only *)
}

let crawl cfg = Generator.generate (Generator.scaled ~seed:cfg.seed ~n_users:users ())

let write_crawl cfg d = ignore (Source_files.write d cfg.tmp)

(* From the files on disk to a validated dataset: the first half of
   every in-process set-up. *)
let load_crawl cfg =
  let d = Source_files.read (Source_files.paths_in cfg.tmp) in
  match Dataset.validate d with Ok () -> d | Error msg -> failwith ("invalid crawl: " ^ msg)

let time_s f =
  let t0 = Procfs.now_ns () in
  let v = f () in
  (v, float_of_int (Procfs.now_ns () - t0) /. 1e9)

(* Run ops [warmup, n) and record each op's latency; ops before
   [warmup] run untimed. Returns latencies and the timed wall time,
   plus the CPU steal ticks seen during the timed window. The timed
   window starts from a compacted heap with the peak-RSS mark reset,
   so peak_rss_mb is the peak while serving the timed ops: set-up
   transients depend on GC timing and are covered by setup_s. *)
let run_ops ~warmup ~n f =
  for i = 0 to warmup - 1 do
    f i
  done;
  Gc.compact ();
  Procfs.reset_peak_rss "self";
  let lat = Array.make (n - warmup) 0. in
  let steal0 = Procfs.steal_ticks () in
  let w0 = Procfs.now_ns () in
  for i = warmup to n - 1 do
    let t0 = Procfs.now_ns () in
    f i;
    lat.(i - warmup) <- float_of_int (Procfs.now_ns () - t0)
  done;
  let wall = float_of_int (Procfs.now_ns () - w0) /. 1e9 in
  (lat, wall, Procfs.steal_ticks () - steal0)

let cost_of db = Cost_model.snapshot (Sim_disk.cost (Db.disk db))

let sum_costs dbs =
  List.fold_left (fun acc db -> Cost_model.add_counters acc (cost_of db)) Cost_model.zero_counters dbs

(* Storage-layer metrics over a counter delta spread across [ops]. *)
let storage_layers (d : Cost_model.counters) ~ops =
  let per x = float_of_int x /. float_of_int (max 1 ops) in
  let accesses = d.Cost_model.page_hits + d.Cost_model.page_faults in
  [
    ("neo.db_hits_per_op", per d.Cost_model.db_hits);
    ("neo.sim_us_per_op", per d.Cost_model.simulated_ns /. 1e3);
    ( "storage.page_hit_ratio",
      if accesses = 0 then 0. else float_of_int d.Cost_model.page_hits /. float_of_int accesses );
    ("storage.faults_per_op", per d.Cost_model.page_faults);
    ("storage.flushes_per_kop", 1000. *. per d.Cost_model.page_flushes);
  ]

let mean_us ns count = if count = 0 then 0. else float_of_int ns /. float_of_int count /. 1e3

let lookup name layers = Option.value ~default:0. (List.assoc_opt name layers)

(* The traced run's self-check: per-layer self times (plus any
   transport time the spans cannot see) must add up to the untraced
   per-op latency within [tolerance]. The gap is tracing overhead plus
   the drift between two passes over the same ops (for HTTP, the
   server's timed window and the in-process replay); on a 2-vCPU
   Xeon VM at 25-second runs it measured 0.04-0.09. *)
let tolerance = 0.35

let self_check ~layer_sum_us ~untraced_us =
  let err = if untraced_us <= 0. then infinity else Float.abs (layer_sum_us -. untraced_us) /. untraced_us in
  ( err <= tolerance,
    Printf.sprintf "per-layer sum %.3f us vs untraced %.3f us per op (error %.3f, tolerance %.2f)"
      layer_sum_us untraced_us err tolerance )
