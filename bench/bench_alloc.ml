(* A1': allocation profile of the Table-2 core-API mix — minor-heap
   words allocated per db hit on the packed read path: unboxed field
   decoding and the endpoint-only chain walk of [Db.neighbors], which
   yields endpoint ints without building edge records. The oracle
   asserts (when the committed baseline exists) that the current build
   has not regressed past 1.5x the baseline. A second arm runs each
   query through Cypher against the same query through the core API. *)

open Bench_support

let baseline_path = "_repro/alloc_baseline.csv"

(* Smaller than the shared bench env: the alloc ratio is per-hit, so
   it is scale-stable, and the experiment imports its own instance. *)
let alloc_users () = if !smoke then 400 else 1500

(* The Table-2 argument selection, condensed from bench_tables. *)
let pick_args (dataset : Dataset.t) (reference : Reference.t) scale =
  let by_mentions = Params.users_by_mention_degree reference in
  let uid = match List.rev by_mentions with (_, uid) :: _ -> uid | [] -> 0 in
  let uid2 =
    match reference.Reference.followees.(uid) with
    | f :: _ -> (
      match reference.Reference.followees.(f) with
      | fof :: _ when fof <> uid -> fof
      | _ -> f)
    | [] -> (uid + 1) mod scale
  in
  let follower_of_author =
    let authors =
      Array.fold_left
        (fun acc (tw : Dataset.tweet) -> tw.Dataset.author :: acc)
        [] dataset.Dataset.tweets
    in
    let is_author u = List.mem u authors in
    let rec find u =
      if u >= scale then uid
      else if List.exists is_author reference.Reference.followees.(u) then u
      else find (u + 1)
    in
    find 0
  in
  let base =
    {
      Workload.uid;
      uid2;
      tag = "topic0";
      n = 10;
      threshold = scale / 100;
      max_hops = 3;
    }
  in
  fun (q : Workload.query) ->
    if String.length q.Workload.id >= 2 && String.sub q.Workload.id 0 2 = "Q2" then
      { base with Workload.uid = follower_of_author }
    else base

(* Minor words and db hits per run, averaged over [runs] identical
   executions after one warm-up (plan caches, lazy structures). *)
let profile cost ~runs f =
  ignore (f ());
  let h0 = (Cost_model.snapshot cost).Cost_model.db_hits in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (f ())
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int runs in
  let hits =
    ((Cost_model.snapshot cost).Cost_model.db_hits - h0) / runs
  in
  (words, hits)

let read_baseline () =
  if not (Sys.file_exists baseline_path) then None
  else
    let ic = open_in baseline_path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          match input_line ic with
          | exception End_of_file -> None
          | line -> (
            match String.split_on_char ',' line with
            | [ "total"; _; _; wph ] -> float_of_string_opt wph
            | _ -> find ())
        in
        find ())

(* Minor and promoted words, and wall nanoseconds, per run of [f]. *)
let per_run ~runs f =
  let minor0, promoted0, _ = Gc.counters () in
  let t0 = Stats.Timing.now_ns () in
  for _ = 1 to runs do
    ignore (f ())
  done;
  let ns = Int64.to_float (Int64.sub (Stats.Timing.now_ns ()) t0) in
  let minor1, promoted1, _ = Gc.counters () in
  let per x = x /. float_of_int runs in
  (per ns, per (minor1 -. minor0), per (promoted1 -. promoted0))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let cypher_rounds = 5

(* Cypher against the core API, per Table-2 query: ROADMAP item 7's
   1.2x. Each round times [runs] API runs and [runs] Cypher runs, the
   order alternating between rounds; a row holds the medians over the
   rounds. Wall time is host-noisy, so the arm reports and asserts
   nothing. *)
let run_cypher_arm neo args_for =
  section "A1'': Cypher against the core API, per query";
  let runs = if !smoke then 3 else 20 in
  let rows =
    List.map
      (fun (q : Workload.query) ->
        let args = args_for q in
        let api () = q.Workload.run_neo_api neo args in
        let cypher () = q.Workload.run_cypher neo args in
        ignore (api ());
        ignore (cypher ());
        let rounds =
          List.init cypher_rounds (fun round ->
              let (api_ns, api_minor, _), (cy_ns, cy_minor, cy_promoted) =
                if round mod 2 = 0 then
                  let a = per_run ~runs api in
                  (a, per_run ~runs cypher)
                else
                  let c = per_run ~runs cypher in
                  (per_run ~runs api, c)
              in
              (api_minor, cy_minor, cy_promoted, cy_ns /. api_ns))
        in
        let med f = median (List.map f rounds) in
        ( q.Workload.id,
          med (fun (m, _, _, _) -> m),
          med (fun (_, m, _, _) -> m),
          med (fun (_, _, p, _) -> p),
          med (fun (_, _, _, r) -> r) ))
      Workload.all
  in
  let cells (id, api_minor, minor, promoted, ratio) =
    [
      id;
      Printf.sprintf "%.0f" api_minor;
      Printf.sprintf "%.0f" minor;
      Printf.sprintf "%.0f" promoted;
      Printf.sprintf "%.2f" ratio;
    ]
  in
  let header =
    [ "query"; "api_minor_words"; "cypher_minor_words"; "cypher_promoted_words"; "cypher_over_api_wall" ]
  in
  Text_table.print
    ~aligns:[ Text_table.Left; Right; Right; Right; Right ]
    ~header (List.map cells rows);
  let oc = open_out "alloc_cypher.csv" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (String.concat "," header ^ "\n");
      List.iter (fun row -> output_string oc (String.concat "," (cells row) ^ "\n")) rows);
  Printf.printf "(csv written: alloc_cypher.csv; medians of %d rounds of %d runs)\n" cypher_rounds
    runs

let run_alloc () =
  section "A1': minor-heap words per db hit (record chains)";
  let scale = alloc_users () in
  announce "# setup: generating + importing (n_users=%d)\n%!" scale;
  let dataset = Generator.generate (Generator.scaled ~n_users:scale ()) in
  let reference = Reference.build dataset in
  let neo = Contexts.build_neo dataset in
  let args_for = pick_args dataset reference scale in
  let cost = Sim_disk.cost (Db.disk neo.Contexts.db) in
  let runs = if !smoke then 2 else 5 in
  let mix =
    List.map
      (fun (q : Workload.query) ->
        let args = args_for q in
        let words, hits =
          profile cost ~runs (fun () -> q.Workload.run_neo_api neo args)
        in
        (q.Workload.id, words, hits))
      Workload.all
  in
  let fmt_wph words hits =
    if hits = 0 then "-" else Printf.sprintf "%.1f" (words /. float_of_int hits)
  in
  let words, hits = List.fold_left (fun (w, h) (_, dw, dh) -> (w +. dw, h + dh)) (0.0, 0) mix in
  let wph = words /. float_of_int (max 1 hits) in
  let rows =
    List.map (fun (id, w, h) -> [ id; string_of_int h; Printf.sprintf "%.0f" w; fmt_wph w h ]) mix
    @ [ [ "total"; string_of_int hits; Printf.sprintf "%.0f" words; Printf.sprintf "%.1f" wph ] ]
  in
  table
    ~aligns:[ Text_table.Left; Right; Right; Right ]
    ~name:"alloc"
    ~header:[ "query"; "db hits"; "minor words"; "words/hit" ]
    rows;
  (* Always leave the artifact next to the binary too, so CI can pick
     it up without MGQ_BENCH_CSV plumbing. *)
  let oc = open_out "alloc_current.csv" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "query,hits,words,words_per_hit\n";
      List.iter
        (fun (id, w, h) ->
          Printf.fprintf oc "%s,%d,%.1f,%s\n" id h w (fmt_wph w h))
        mix;
      Printf.fprintf oc "total,%d,%.1f,%.1f\n" hits words wph);
  Printf.printf "(csv written: alloc_current.csv)\n";
  (match read_baseline () with
  | None ->
    Printf.printf "note: no committed baseline at %s; regression check skipped\n"
      baseline_path
  | Some base_wph ->
    if wph > base_wph *. 1.5 then
      record_failure "alloc: %.1f words/hit regressed past 1.5x baseline %.1f" wph base_wph
    else
      Printf.printf "oracle ok: %.1f words/hit within 1.5x of baseline %.1f\n" wph base_wph);
  run_cypher_arm neo args_for
