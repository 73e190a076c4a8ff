(* Regression repro: a rolled-back transaction consumes a node
   allocation that never reaches the WAL, so replay used to re-allocate
   ids shifted by one and recovery raised Node_not_found. Fixed by
   recording explicit ids in Create_node/Create_edge and re-creating
   the allocation holes during replay. Expected output:
     live: n0=0 n2=2 nodes=2 edges=1
     recovered: nodes=2 edges=1
   (dir is dune-ignored; copy next to a dune stanza to run) *)
module Db = Mgq_neo.Db
module Property = Mgq_core.Property

let () =
  let db = Db.create () in
  (* tx1: committed node 0 *)
  let n0 = Db.with_tx db (fun () -> Db.create_node db ~label:"User" Property.empty) in
  (* tx2: rolled back — consumes an allocation *)
  let txn = Db.begin_txn db in
  let _n1 = Db.create_node db ~label:"User" Property.empty in
  Db.rollback_txn db txn;
  (* tx3: committed node (gets id 2 live) + edge to it *)
  let n2 = Db.with_tx db (fun () -> Db.create_node db ~label:"User" Property.empty) in
  ignore (Db.with_tx db (fun () -> Db.create_edge db ~etype:"F" ~src:n0 ~dst:n2 Property.empty));
  Printf.printf "live: n0=%d n2=%d nodes=%d edges=%d\n" n0 n2 (Db.node_count db) (Db.edge_count db);
  match Db.recover db with
  | r -> Printf.printf "recovered: nodes=%d edges=%d\n" (Db.node_count r) (Db.edge_count r)
  | exception e -> Printf.printf "recover raised: %s\n" (Printexc.to_string e)
