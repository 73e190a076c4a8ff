(* perf: runs one benchmark workload and prints its metrics.

     perf --workload NAME --seed N --seconds S --trace 0|1
          --spec BENCHMARK.json --mgq PATH --tmp DIR --out DIR

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. An untraced run
   reports the spec's end-to-end metrics, a traced run its per-layer
   ones, each with the unit the spec gives it. The exit code is
   non-zero when any answer was wrong or the traced run's self-check
   failed. *)

open Common
module Json = Mgq_util.Json

let workloads = [ ("cypher-http", W_http.run); ("ingest-mix", W_ingest.run) ]

let usage () =
  prerr_endline
    "usage: perf --workload (cypher-http|ingest-mix) --seed N --seconds S --trace 0|1 \
     --spec BENCHMARK.json --mgq PATH --tmp DIR --out DIR";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let cfg =
    {
      workload = get "workload";
      seed = int "seed";
      seconds = int "seconds";
      trace = int "trace" = 1;
      spec = get "spec";
      mgq = get "mgq";
      tmp = get "tmp";
      out = get "out";
    }
  in
  if cfg.seconds < 1 || not (List.mem_assoc cfg.workload workloads) then usage ();
  cfg

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let end_to_end (r : result) tally =
  let sorted = Pstats.sorted r.latencies_ns in
  let p99 =
    match Pstats.tail sorted 99. with
    | Some t -> t
    | None -> failwith "too few timed ops for a tail percentile"
  in
  let ms ns = ns /. 1e6 in
  ( [
      ("setup_s", Pstats.median_of_list r.setups_s);
      ("throughput_ops", float_of_int (Array.length r.latencies_ns) /. r.timed_wall_s);
      ("p50_ms", ms (Pstats.median sorted));
      ("p99_ms", ms p99.Pstats.value);
      ("ok_ratio", Outcome.ok_ratio tally);
      ("peak_rss_mb", r.peak_rss_mb);
    ],
    [
      ("p99_rank", Printf.sprintf "%d/%d" p99.Pstats.rank (Array.length sorted));
      ("p99_samples_beyond", string_of_int p99.Pstats.above);
      ("setups_s", String.concat "," (List.map (Printf.sprintf "%.3f") r.setups_s));
    ] )

(* (name, unit) of every metric in the spec's [key] list. *)
let spec_metrics cfg key =
  let text = In_channel.with_open_bin cfg.spec In_channel.input_all in
  let field k j = match Json.member k j with Some (Json.Str s) -> s | _ -> failwith ("spec: bad " ^ k) in
  match Result.map (Json.member key) (Json.of_string text) with
  | Ok (Some (Json.Arr xs)) -> List.map (fun m -> (field "name" m, field "unit" m)) xs
  | _ -> failwith ("spec: no " ^ key ^ " list in " ^ cfg.spec)

let () =
  let cfg = parse_args () in
  let units = spec_metrics cfg (if cfg.trace then "per_layer" else "end_to_end") in
  (* A signal unwinds like an exception, so the server child is
     stopped and the scratch directory removed. *)
  let interrupt _ = failwith "interrupted" in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupt);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupt);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p cfg.tmp;
  mkdir_p cfg.out;
  let r =
    Fun.protect ~finally:(fun () -> remove_tree cfg.tmp) (fun () ->
        (List.assoc cfg.workload workloads) cfg)
  in
  let tally = Outcome.tally r.outcomes in
  let e2e, e2e_meta = end_to_end r tally in
  let meta =
    [
      ("workload", cfg.workload);
      ("trace", if cfg.trace then "1" else "0");
      ("nproc", string_of_int (Procfs.nproc ()));
      ("users", string_of_int users);
      ("seed", string_of_int cfg.seed);
    ]
    @ r.meta @ e2e_meta
  in
  print_endline
    ("perfbench: " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) meta));
  List.iter
    (fun (i, o) -> Printf.printf "perfbench: op %d failed: %s\n" i (Outcome.describe o))
    tally.Outcome.first_failures;
  (match r.self_check with
  | Some (ok, msg) -> Printf.printf "perfbench: self-check %s: %s\n" (if ok then "passed" else "FAILED") msg
  | None -> ());
  let values = if cfg.trace then r.layers else e2e in
  (* Every value measured must be in the spec; a per-layer metric of a
     layer this workload never enters reads 0. *)
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name units) then failwith ("metric missing from the spec: " ^ name))
    values;
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (List.assoc_opt name values) in
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
      units
  in
  let correct = tally.Outcome.failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int tally.Outcome.attempted);
            ("failed", Json.Int tally.Outcome.failed);
            ("metrics", Json.Obj metrics);
          ]));
  let self_ok = match r.self_check with Some (ok, _) -> ok | None -> true in
  if not (correct && self_ok) then exit 1
