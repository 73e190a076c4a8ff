module Db = Mgq_neo.Db
module Sim_disk = Mgq_storage.Sim_disk
module Fault = Mgq_storage.Fault
module Value = Mgq_core.Value
module Property = Mgq_core.Property
module Rng = Mgq_util.Rng

type config = {
  seed : int;
  sessions : int;
  txns_per_session : int;
  ops_per_txn : int;
  registers : int;
  isolation : Db.isolation;
  crash_at_commit : int option;
}

let config ?(sessions = 4) ?(txns_per_session = 4) ?(ops_per_txn = 4) ?(registers = 3)
    ?crash_at_commit ~seed ~isolation () =
  { seed; sessions; txns_per_session; ops_per_txn; registers; isolation; crash_at_commit }

let write_prob = 0.5
let abort_prob = 0.15

type run = {
  cfg : config;
  db : Db.t;
  history : History.t;
  reg_nodes : int array;
  initial : (int * int) list;
  crashed : bool;
  acked : (int * (int * int) list) list;
      (* commit order: txn id, its (reg, value) writes in op order *)
  crash_commit_writes : (int * int) list option;
  committed : int;
  conflicts : int;
  aborted : int;
}

let as_int = function
  | Value.Int i -> i
  | v -> failwith ("Sched: register holds a non-int: " ^ Value.to_display v)

(* One generated transaction: its operations, then how it ends. *)
type op = O_read of int | O_write of int
type terminal = T_commit | T_abort
type prog = { p_ops : op list; p_terminal : terminal }

type sess = {
  sid : int;
  mutable todo : prog list;
  mutable cur : (Db.txn * op list * terminal) option;
}

let run cfg =
  (* Two independent streams: programs must not depend on how many
     scheduling draws were consumed, or a config tweak would reshuffle
     every workload. [split] hands the scheduler its own stream before
     any program draw. *)
  let prog_rng = Rng.create cfg.seed in
  let sched_rng = Rng.split prog_rng in
  let db = Db.create () in
  Db.set_isolation db cfg.isolation;
  let next_val = ref 0 in
  let fresh () =
    incr next_val;
    !next_val
  in
  (* Registers are ordinary nodes; their "v" property is the versioned
     cell the workload reads and writes. Initial values are unique so
     the checker can attribute every read. *)
  let initial = List.init cfg.registers (fun r -> (r, fresh ())) in
  let reg_nodes =
    Array.of_list
      (List.map
         (fun (r, v) ->
           Db.create_node db ~label:"reg"
             (Property.of_list [ ("reg", Value.Int r); ("v", Value.Int v) ]))
         initial)
  in
  let gen_prog () =
    let ops =
      List.init cfg.ops_per_txn (fun _ ->
          let r = Rng.int prog_rng cfg.registers in
          if Rng.chance prog_rng write_prob then O_write r else O_read r)
    in
    let terminal =
      if Rng.chance prog_rng abort_prob then T_abort else T_commit
    in
    { p_ops = ops; p_terminal = terminal }
  in
  let sessions =
    Array.init cfg.sessions (fun sid ->
        { sid; todo = List.init cfg.txns_per_session (fun _ -> gen_prog ()); cur = None })
  in
  let hist = History.create () in
  let writes_of : (int, (int * int) list) Hashtbl.t = Hashtbl.create 32 in
  let push_write tid rv =
    let prev = Option.value ~default:[] (Hashtbl.find_opt writes_of tid) in
    Hashtbl.replace writes_of tid (rv :: prev)
  in
  let tx_writes tid = List.rev (Option.value ~default:[] (Hashtbl.find_opt writes_of tid)) in
  let acked = ref [] in
  let crashed = ref false in
  let crash_commit_writes = ref None in
  let committed = ref 0 and conflicts = ref 0 and aborted = ref 0 in
  let commit_attempts = ref 0 in
  (* One step = one engine call — a db-hit-charging unit, the finest
     granularity at which interleaving is observable (engine calls
     are exception-atomic, so a switch inside one cannot be seen). *)
  let step s =
    match s.cur with
    | None -> (
      match s.todo with
      | [] -> ()
      | p :: rest ->
        s.todo <- rest;
        let txn = Db.begin_txn db in
        History.record hist ~session:s.sid ~txn:(Db.txn_id txn) History.Begin;
        s.cur <- Some (txn, p.p_ops, p.p_terminal))
    | Some (txn, ops, terminal) -> (
      let tid = Db.txn_id txn in
      Db.activate db txn;
      match ops with
      | O_read r :: rest -> (
        try
          let v = as_int (Db.node_property db reg_nodes.(r) "v") in
          History.record hist ~session:s.sid ~txn:tid (History.Read { reg = r; value = v });
          s.cur <- Some (txn, rest, terminal)
        with Fault.Torn_write _ | Fault.Crashed _ ->
          History.record hist ~session:s.sid ~txn:tid History.Crash;
          crashed := true;
          s.cur <- None)
      | O_write r :: rest -> (
        let v = fresh () in
        match Db.set_node_property db reg_nodes.(r) "v" (Value.Int v) with
        | () ->
          History.record hist ~session:s.sid ~txn:tid (History.Write { reg = r; value = v });
          push_write tid (r, v);
          s.cur <- Some (txn, rest, terminal)
        | exception Db.Tx_conflict c ->
          incr conflicts;
          incr aborted;
          History.record hist ~session:s.sid ~txn:tid
            (History.Conflict { key = c.Db.c_key; reason = c.Db.c_reason });
          Db.rollback_txn db txn;
          s.cur <- None
        | exception (Fault.Torn_write _ | Fault.Crashed _) ->
          History.record hist ~session:s.sid ~txn:tid History.Crash;
          crashed := true;
          s.cur <- None)
      | [] -> (
        match terminal with
        | T_abort ->
          History.record hist ~session:s.sid ~txn:tid History.Abort;
          incr aborted;
          Db.rollback_txn db txn;
          s.cur <- None
        | T_commit -> (
          incr commit_attempts;
          (match cfg.crash_at_commit with
          | Some k when k = !commit_attempts ->
            (* Arm the machine to die on the next page write: for a
               writing transaction, mid-WAL-append. *)
            Sim_disk.arm_faults (Db.disk db)
              (Fault.plan ~seed:cfg.seed ~crash_at_write:1 ~torn_crash:true ())
          | _ -> ());
          match Db.commit_txn db txn with
          | () ->
            History.record hist ~session:s.sid ~txn:tid History.Commit_ok;
            incr committed;
            acked := (tid, tx_writes tid) :: !acked;
            s.cur <- None
          | exception (Fault.Torn_write _ | Fault.Crashed _) ->
            (* Died inside the commit's WAL append: the record is
               either fully durable or torn away — recovery decides. *)
            History.record hist ~session:s.sid ~txn:tid History.Crash;
            crashed := true;
            crash_commit_writes := Some (tx_writes tid);
            s.cur <- None)))
  in
  let rec loop () =
    if not !crashed then begin
      let live =
        Array.of_list
          (List.filter
             (fun s -> s.cur <> None || s.todo <> [])
             (Array.to_list sessions))
      in
      if Array.length live > 0 then begin
        step live.(Rng.int sched_rng (Array.length live));
        loop ()
      end
    end
  in
  loop ();
  {
    cfg;
    db;
    history = hist;
    reg_nodes;
    initial;
    crashed = !crashed;
    acked = List.rev !acked;
    crash_commit_writes = !crash_commit_writes;
    committed = !committed;
    conflicts = !conflicts;
    aborted = !aborted;
  }

let final_state run =
  if run.crashed then []
  else
    List.mapi (fun r node -> (r, as_int (Db.node_property run.db node "v")))
      (Array.to_list run.reg_nodes)

let committed_expectation run =
  let m = Hashtbl.create 8 in
  List.iter (fun (r, v) -> Hashtbl.replace m r v) run.initial;
  List.iter (fun (_, ws) -> List.iter (fun (r, v) -> Hashtbl.replace m r v) ws) run.acked;
  List.map (fun (r, _) -> (r, Hashtbl.find m r)) run.initial
