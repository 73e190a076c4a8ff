module Db = Mgq_neo.Db
module Fault = Mgq_storage.Fault
module Rng = Mgq_util.Rng
module Verdict = Mgq_util.Verdict
module Value = Mgq_core.Value

type sessions_run = {
  stale : int;
  promotions : (int * Cluster.promotion) list;
  verdicts : Verdict.t list;
}

let verdict name passed detail = { Verdict.name; passed; detail }

let lost_nothing promotions =
  let lost = List.fold_left (fun n (p : Cluster.promotion) -> n + p.lost_acked) 0 promotions in
  verdict "no-acked-commit-lost" (lost = 0)
    (Printf.sprintf "%d acked commits lost over %d promotions" lost (List.length promotions))

let node props db = Db.create_node db ~label:"user" (Mgq_core.Property.of_list props)

let sessions ?(failover = false) cluster ~sessions ~steps ~write_ratio ~seed =
  let rng = Rng.create seed in
  let markers =
    Array.init sessions (fun sid ->
        Cluster.write cluster ~session:(Cluster.session cluster sid) (node [ ("v", Value.Int 0) ]))
  in
  let value = Array.make sessions 0 in
  let stale = ref 0 and promotions = ref [] in
  let step i =
    let sid = Rng.int rng sessions in
    let session = Cluster.session cluster sid in
    if Rng.chance rng write_ratio then begin
      Cluster.write cluster ~session (fun db ->
          Db.set_node_property db markers.(sid) "v" (Value.Int i));
      value.(sid) <- i
    end
    else
      let budget = Mgq_util.Budget.create ~max_ns:1_000_000_000 () in
      let read db = Db.node_property db markers.(sid) "v" in
      if Cluster.read cluster ~budget ~session read <> Value.Int value.(sid) then incr stale
  in
  for i = 1 to steps do
    if failover && i = steps / 2 then
      Cluster.kill_primary cluster ~crash_at_write:(1 + Rng.int rng 50);
    try step i
    with Fault.Torn_write _ | Fault.Crashed _ ->
      promotions := (i, Cluster.promote cluster) :: !promotions
  done;
  let promotions = List.rev !promotions in
  (* The armed crash may land past the last write: a failover drill
     that never failed over has tested nothing and must say so. *)
  let promoted =
    if not failover then []
    else
      [
        verdict "promoted" (promotions <> [])
          (Printf.sprintf "%d promotions in a failover drill of %d steps" (List.length promotions)
             steps);
      ]
  in
  {
    stale = !stale;
    promotions;
    verdicts =
      [
        verdict "read-your-writes" (!stale = 0)
          (Printf.sprintf "%d stale reads of own writes" !stale);
        lost_nothing (List.map snd promotions);
      ]
      @ promoted;
  }

type trial = {
  cluster : Cluster.t;
  acked : int;
  promotion : Cluster.promotion;
  verdicts : Verdict.t list;
}

let failover_trial ~seed =
  let config =
    {
      Cluster.default_config with
      Cluster.replicas = 3;
      seed;
      lag = Replica.Latency { ticks = 1 };
      drop_p = 0.1;
      policy = Router.Least_lagged;
    }
  in
  let cluster = Cluster.create ~config () in
  let session = Cluster.session cluster 0 in
  let write i = ignore (Cluster.write cluster ~session (node [ ("k", Value.Int i) ])) in
  Cluster.kill_primary cluster ~crash_at_write:(1 + Rng.int (Rng.create (seed * 7919)) 300);
  let acked = ref 0 in
  (try
     for i = 0 to 79 do
       write i;
       incr acked
     done
   with Fault.Torn_write _ | Fault.Crashed _ -> ());
  (* The crash point may land past the whole workload; force the next
     write to die so every trial exercises failover. *)
  if not (Cluster.primary_down cluster) then begin
    Cluster.kill_primary cluster ~crash_at_write:1;
    try write 999 with Fault.Torn_write _ | Fault.Crashed _ -> ()
  end;
  let promotion = Cluster.promote cluster in
  (* Writes are create-only, so acked write i made node i. *)
  let np = Cluster.primary cluster in
  let missing =
    List.length
      (List.filter
         (fun i -> not (Db.node_exists np i && Db.node_property np i "k" = Value.Int i))
         (List.init !acked Fun.id))
  in
  {
    cluster;
    acked = !acked;
    promotion;
    verdicts =
      [
        lost_nothing [ promotion ];
        verdict "clean-scan" (promotion.stop = Mgq_neo.Wal.Clean)
          ("promoted log scanned " ^ Mgq_neo.Wal.stop_to_string promotion.stop);
        verdict "acked-present" (missing = 0)
          (Printf.sprintf "%d of %d acked writes missing on the new primary" missing !acked);
      ];
  }
