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

let node props db = Db.create_node db ~label:"drill" (Mgq_core.Property.of_list props)

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

type step = { run : 'a. (unit -> 'a) -> 'a }

type trial = {
  acked : int list;
  promotion : Cluster.promotion;
  verdicts : Verdict.t list;
}

let crashed f =
  match f () with () -> false | exception (Fault.Torn_write _ | Fault.Crashed _) -> true

let failover_trial ?(step = { run = (fun f -> f ()) }) cluster ~writes ~seed =
  (* Session -1: no id the session workload or a router client uses. *)
  let session = Cluster.session cluster (-1) in
  let acked = ref [] in
  let write i =
    step.run (fun () ->
        let id = Cluster.write cluster ~session (node [ ("k", Value.Int i) ]) in
        acked := (i, id) :: !acked)
  in
  (* A create-only write costs about five page writes, so about one
     seeded point in six lies past the workload. *)
  let crash_at_write = 1 + Rng.int (Rng.create (seed * 7919)) (6 * writes) in
  step.run (fun () -> Cluster.kill_primary cluster ~crash_at_write);
  let rec crashes_by i = i < writes && (crashed (fun () -> write i) || crashes_by (i + 1)) in
  (* When the seeded point lies past the workload, force the next
     write to die so every trial exercises failover. *)
  if not (crashes_by 0) then begin
    step.run (fun () -> Cluster.kill_primary cluster ~crash_at_write:1);
    ignore (crashed (fun () -> write writes))
  end;
  let promotion = step.run (fun () -> Cluster.promote cluster) in
  let acked = List.rev !acked in
  let missing =
    step.run (fun () ->
        let np = Cluster.primary cluster in
        List.length
          (List.filter
             (fun (i, id) -> not (Db.node_exists np id && Db.node_property np id "k" = Value.Int i))
             acked))
  in
  {
    acked = List.map snd acked;
    promotion;
    verdicts =
      [
        lost_nothing [ promotion ];
        verdict "clean-scan" (promotion.stop = Mgq_neo.Wal.Clean)
          ("promoted log scanned " ^ Mgq_neo.Wal.stop_to_string promotion.stop);
        verdict "acked-present" (missing = 0)
          (Printf.sprintf "%d of %d acked writes missing on the new primary" missing
             (List.length acked));
      ];
  }
