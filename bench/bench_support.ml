(* Shared setup and measurement helpers for the bench harness. *)

module Generator = Mgq_twitter.Generator
module Dataset = Mgq_twitter.Dataset
module Contexts = Mgq_queries.Contexts
module Reference = Mgq_queries.Reference
module Workload = Mgq_queries.Workload
module Results = Mgq_queries.Results
module Params = Mgq_queries.Params
module Stats = Mgq_util.Stats
module Text_table = Mgq_util.Text_table
module Cost_model = Mgq_storage.Cost_model
module Sim_disk = Mgq_storage.Sim_disk
module Db = Mgq_neo.Db
module Sdb = Mgq_sparks.Sdb

type env = {
  scale : int;
  dataset : Dataset.t;
  reference : Reference.t;
  neo : Contexts.neo;
  sparks : Contexts.sparks;
}

(* The default bench scale: 1/5000 of the paper's user count, with the
   same shape ratios. Override with MGQ_BENCH_USERS. *)
let default_users = 5_000

(* --smoke: shrink every experiment to a CI-sized sanity pass. The
   numbers stop being interesting; the oracles below still hold. *)
let smoke = ref false

(* Experiments with a known-correct answer assert it through
   [record_failure]; the harness exits non-zero when any fired, so CI
   treats an oracle mismatch as a build failure, not a log line. *)
let failures : string list ref = ref []

let record_failure fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "ORACLE MISMATCH: %s\n%!" s;
      failures := s :: !failures)
    fmt

(* A campaign judges its own run; the bench routes every failed
   verdict into [record_failure] rather than re-deriving it. *)
let check_verdicts prefix verdicts =
  List.iter
    (fun (v : Mgq_util.Verdict.t) ->
      if not v.passed then record_failure "%s: oracle %s failed: %s" prefix v.name v.detail)
    verdicts

let announce fmt = Printf.printf fmt

let build_env ?(with_retweets = false) scale =
  let config =
    { (Generator.scaled ~n_users:scale ()) with Generator.with_retweets = with_retweets }
  in
  announce "# setup: generating synthetic crawl (n_users=%d, seed=%d)\n%!" scale
    config.Generator.seed;
  let dataset = Generator.generate config in
  let reference = Reference.build dataset in
  announce "# setup: importing into the record-store engine\n%!";
  let neo = Contexts.build_neo dataset in
  announce "# setup: importing into the bitmap engine\n%!";
  let sparks = Contexts.build_sparks dataset in
  { scale; dataset; reference; neo; sparks }

let neo_cost env = Sim_disk.cost (Db.disk env.neo.Contexts.db)
let sparks_cost env = Sdb.cost env.sparks.Contexts.sdb

(* The paper's measurement protocol: warm up until stable, then report
   the average over 10 subsequent runs. We report wall-clock mean and
   the deterministic per-run simulated cost / db hits. *)
type measurement = {
  wall_mean_ms : float;
  wall_stddev_ms : float;
  sim_ms : float;
  db_hits : int;
  result_cardinality : int;
}

let measure ?(warmup = 2) ?(runs = 10) cost f =
  let result = ref (Results.Path_length None) in
  let wall = Stats.Timing.measure_ms ~warmup ~runs (fun () -> result := f ()) in
  let before = Cost_model.snapshot cost in
  ignore (f ());
  let delta = Cost_model.sub_counters (Cost_model.snapshot cost) before in
  {
    wall_mean_ms = Stats.Summary.mean wall;
    wall_stddev_ms = Stats.Summary.stddev wall;
    sim_ms = Cost_model.simulated_ms delta;
    db_hits = delta.Cost_model.db_hits;
    result_cardinality = Results.cardinality !result;
  }

let fmt_meas m =
  [
    Text_table.fmt_ms m.wall_mean_ms;
    Text_table.fmt_ms m.sim_ms;
    Text_table.fmt_int m.db_hits;
    string_of_int m.result_cardinality;
  ]

let fmt_rate r = Printf.sprintf "%.0f" r
let fmt_ms_of_ns ns = Printf.sprintf "%.2f" (float_of_int ns /. 1e6)

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"


(* Optional CSV export: when MGQ_BENCH_CSV names a directory, every
   table/series the harness prints is also written there as a CSV
   file, ready for plotting. *)
let csv_dir =
  match Sys.getenv_opt "MGQ_BENCH_CSV" with
  | Some dir when dir <> "" ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Some dir
  | _ -> None

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let export_csv name ~header rows =
  match csv_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (String.concat "," (List.map csv_escape header));
        output_char oc '\n';
        List.iter
          (fun row ->
            output_string oc (String.concat "," (List.map csv_escape row));
            output_char oc '\n')
          rows);
    Printf.printf "(csv written: %s)\n" path

(* Print a table and, when exporting, mirror it to CSV. *)
let table ?aligns ~name ~header rows =
  Text_table.print ?aligns ~header rows;
  export_csv name ~header rows

(* Mirror the process-wide metrics registry next to the result CSVs:
   one row per counter/gauge/histogram bucket, so a bench run ships
   its own observability snapshot alongside the numbers it printed. *)
let export_metrics name =
  match csv_dir with
  | None -> ()
  | Some _ ->
    let rows =
      List.map
        (fun (n, labels, value) -> [ n; labels; value ])
        (Mgq_obs.Obs.rows (Mgq_obs.Obs.snapshot ()))
    in
    export_csv name ~header:[ "metric"; "labels"; "value" ] rows
