module Value = Mgq_core.Value
module Property = Mgq_core.Property
module Cost_model = Mgq_storage.Cost_model
module Fault = Mgq_storage.Fault
module Retry = Mgq_util.Retry
open Mgq_core.Types

(* Transient injected I/O errors are worth retrying; crashes, torn
   writes and logic errors are not. *)
let retryable = function Fault.Io_error _ -> true | _ -> false

let run_with_retry ?rng cost f =
  Retry.run ?rng ~retryable
    ~on_backoff:(fun ns -> Cost_model.advance_ns cost ns)
    f

module Live_neo = struct
  module Db = Mgq_neo.Db

  type t = {
    db : Db.t;
    user_nodes : (int, int) Hashtbl.t; (* uid -> node id *)
    hashtag_nodes : (string, int) Hashtbl.t;
  }

  let attach db ~users ~tweets ~hashtags (d : Dataset.t) =
    ignore tweets;
    let user_nodes = Hashtbl.create (Array.length users * 2) in
    Array.iteri (fun uid node -> Hashtbl.replace user_nodes uid node) users;
    let hashtag_nodes = Hashtbl.create 256 in
    Array.iteri
      (fun i node -> Hashtbl.replace hashtag_nodes d.Dataset.hashtags.(i) node)
      hashtags;
    { db; user_nodes; hashtag_nodes }

  let node_of_uid t uid = Hashtbl.find_opt t.user_nodes uid

  let hashtag_node t tag =
    match Hashtbl.find_opt t.hashtag_nodes tag with
    | Some node -> node
    | None ->
      let node =
        Db.create_node t.db ~label:Schema.hashtag
          (Property.of_list [ (Schema.tag, Value.Str tag) ])
      in
      Hashtbl.replace t.hashtag_nodes tag node;
      node

  let apply t event =
    Db.with_tx t.db (fun () ->
        match event with
        | Stream.New_user { uid; name } ->
          let node =
            Db.create_node t.db ~label:Schema.user
              (Property.of_list
                 [
                   (Schema.uid, Value.Int uid);
                   (Schema.name, Value.Str name);
                   (Schema.followers, Value.Int 0);
                 ])
          in
          Hashtbl.replace t.user_nodes uid node
        | Stream.New_follow { follower; followee } -> (
          match (node_of_uid t follower, node_of_uid t followee) with
          | Some a, Some b ->
            ignore (Db.create_edge t.db ~etype:Schema.follows ~src:a ~dst:b Property.empty);
            (* Keep the denormalised follower count fresh. *)
            (match Db.node_property t.db b Schema.followers with
            | Value.Int c -> Db.set_node_property t.db b Schema.followers (Value.Int (c + 1))
            | _ -> ())
          | _ -> ())
        | Stream.Unfollow { follower; followee } -> (
          match (node_of_uid t follower, node_of_uid t followee) with
          | Some a, Some b -> (
            let edge =
              Seq.find (fun (e : edge) -> e.dst = b) (Db.edges_of t.db a ~etype:Schema.follows Out)
            in
            match edge with
            | Some e ->
              Db.delete_edge t.db e.id;
              (match Db.node_property t.db b Schema.followers with
              | Value.Int c ->
                Db.set_node_property t.db b Schema.followers (Value.Int (c - 1))
              | _ -> ())
            | None -> ())
          | _ -> ())
        | Stream.New_tweet { tid; author; text; mentions; tags } -> (
          match node_of_uid t author with
          | None -> ()
          | Some author_node ->
            let tweet =
              Db.create_node t.db ~label:Schema.tweet
                (Property.of_list
                   [ (Schema.tid, Value.Int tid); (Schema.text, Value.Str text) ])
            in
            ignore
              (Db.create_edge t.db ~etype:Schema.posts ~src:author_node ~dst:tweet
                 Property.empty);
            List.iter
              (fun uid ->
                match node_of_uid t uid with
                | Some u ->
                  ignore
                    (Db.create_edge t.db ~etype:Schema.mentions ~src:tweet ~dst:u
                       Property.empty)
                | None -> ())
              mentions;
            List.iter
              (fun tag ->
                ignore
                  (Db.create_edge t.db ~etype:Schema.tags ~src:tweet ~dst:(hashtag_node t tag)
                     Property.empty))
              tags))

  (* The uid/tag caches sit outside the store's undo log: a rolled-back
     attempt can leave them pointing at nodes whose creation was
     undone. Drop such entries so a retry re-creates the nodes. *)
  let forget_rolled_back t event =
    let purge_user uid =
      match Hashtbl.find_opt t.user_nodes uid with
      | Some node when not (Db.node_exists t.db node) -> Hashtbl.remove t.user_nodes uid
      | _ -> ()
    in
    let purge_tag tag =
      match Hashtbl.find_opt t.hashtag_nodes tag with
      | Some node when not (Db.node_exists t.db node) -> Hashtbl.remove t.hashtag_nodes tag
      | _ -> ()
    in
    match event with
    | Stream.New_user { uid; _ } -> purge_user uid
    | Stream.New_tweet { tags; _ } -> List.iter purge_tag tags
    | Stream.New_follow _ | Stream.Unfollow _ -> ()

  let apply_with_retry ?rng t event =
    let cost = Mgq_storage.Sim_disk.cost (Db.disk t.db) in
    let (), outcome =
      run_with_retry ?rng cost (fun () ->
          forget_rolled_back t event;
          apply t event)
    in
    outcome
end

module Live_sparks = struct
  module Sdb = Mgq_sparks.Sdb

  type t = {
    sdb : Sdb.t;
    user_oids : (int, int) Hashtbl.t;
    hashtag_oids : (string, int) Hashtbl.t;
    t_user : int;
    t_tweet : int;
    t_hashtag : int;
    t_follows : int;
    t_posts : int;
    t_mentions : int;
    t_tags : int;
    a_uid : int;
    a_name : int;
    a_followers : int;
    a_tid : int;
    a_text : int;
    a_tag : int;
  }

  let attach sdb ~users ~tweets ~hashtags (d : Dataset.t) =
    ignore tweets;
    let user_oids = Hashtbl.create (Array.length users * 2) in
    Array.iteri (fun uid oid -> Hashtbl.replace user_oids uid oid) users;
    let hashtag_oids = Hashtbl.create 256 in
    Array.iteri
      (fun i oid -> Hashtbl.replace hashtag_oids d.Dataset.hashtags.(i) oid)
      hashtags;
    let t_user = Sdb.find_type sdb Schema.user in
    let t_tweet = Sdb.find_type sdb Schema.tweet in
    let t_hashtag = Sdb.find_type sdb Schema.hashtag in
    {
      sdb;
      user_oids;
      hashtag_oids;
      t_user;
      t_tweet;
      t_hashtag;
      t_follows = Sdb.find_type sdb Schema.follows;
      t_posts = Sdb.find_type sdb Schema.posts;
      t_mentions = Sdb.find_type sdb Schema.mentions;
      t_tags = Sdb.find_type sdb Schema.tags;
      a_uid = Sdb.find_attribute sdb t_user Schema.uid;
      a_name = Sdb.find_attribute sdb t_user Schema.name;
      a_followers = Sdb.find_attribute sdb t_user Schema.followers;
      a_tid = Sdb.find_attribute sdb t_tweet Schema.tid;
      a_text = Sdb.find_attribute sdb t_tweet Schema.text;
      a_tag = Sdb.find_attribute sdb t_hashtag Schema.tag;
    }

  let oid_of_uid t uid = Hashtbl.find_opt t.user_oids uid

  (* The bitmap engine has no transaction layer ("Sparksee ... is not
     [fully transactional]"), so atomicity is compensation-based: every
     mutation journals its inverse, and a failing event rolls the
     journal back in reverse order — which is what makes the event
     retryable. *)
  let apply t event =
    let journal = ref [] in
    let note u = journal := u :: !journal in
    let new_node typ =
      let oid = Sdb.new_node t.sdb typ in
      note (fun () -> Sdb.drop_node t.sdb oid);
      oid
    in
    let new_edge typ ~tail ~head =
      let e = Sdb.new_edge t.sdb typ ~tail ~head in
      note (fun () -> Sdb.drop_edge t.sdb e);
      e
    in
    let set_attr oid attr v =
      let old_v = Sdb.get_attribute t.sdb oid attr in
      Sdb.set_attribute t.sdb oid attr v;
      note (fun () -> Sdb.set_attribute t.sdb oid attr old_v)
    in
    let hashtag_oid tag =
      match Hashtbl.find_opt t.hashtag_oids tag with
      | Some oid -> oid
      | None ->
        let oid = new_node t.t_hashtag in
        set_attr oid t.a_tag (Value.Str tag);
        Hashtbl.replace t.hashtag_oids tag oid;
        note (fun () -> Hashtbl.remove t.hashtag_oids tag);
        oid
    in
    let bump_followers oid delta =
      match Sdb.get_attribute t.sdb oid t.a_followers with
      | Value.Int c -> set_attr oid t.a_followers (Value.Int (c + delta))
      | _ -> ()
    in
    let run () =
      match event with
      | Stream.New_user { uid; name } ->
        let oid = new_node t.t_user in
        set_attr oid t.a_uid (Value.Int uid);
        set_attr oid t.a_name (Value.Str name);
        set_attr oid t.a_followers (Value.Int 0);
        Hashtbl.replace t.user_oids uid oid;
        note (fun () -> Hashtbl.remove t.user_oids uid)
      | Stream.New_follow { follower; followee } -> (
        match (oid_of_uid t follower, oid_of_uid t followee) with
        | Some a, Some b ->
          ignore (new_edge t.t_follows ~tail:a ~head:b);
          bump_followers b 1
        | _ -> ())
      | Stream.Unfollow { follower; followee } -> (
        match (oid_of_uid t follower, oid_of_uid t followee) with
        | Some a, Some b -> (
          let edges = Sdb.explode t.sdb a t.t_follows Out in
          let victim =
            Mgq_sparks.Objects.fold
              (fun acc e -> if acc = None && Sdb.head_of t.sdb e = b then Some e else acc)
              None edges
          in
          match victim with
          | Some e ->
            (* Re-creating the edge is the only inverse the engine
               offers; the replacement gets a fresh oid, which is fine
               because edge oids never escape an event. *)
            Sdb.drop_edge t.sdb e;
            note (fun () -> ignore (Sdb.new_edge t.sdb t.t_follows ~tail:a ~head:b));
            bump_followers b (-1)
          | None -> ())
        | _ -> ())
      | Stream.New_tweet { tid; author; text; mentions; tags } -> (
        match oid_of_uid t author with
        | None -> ()
        | Some author_oid ->
          let tweet = new_node t.t_tweet in
          set_attr tweet t.a_tid (Value.Int tid);
          set_attr tweet t.a_text (Value.Str text);
          ignore (new_edge t.t_posts ~tail:author_oid ~head:tweet);
          List.iter
            (fun uid ->
              match oid_of_uid t uid with
              | Some u -> ignore (new_edge t.t_mentions ~tail:tweet ~head:u)
              | None -> ())
            mentions;
          List.iter
            (fun tag -> ignore (new_edge t.t_tags ~tail:tweet ~head:(hashtag_oid tag)))
            tags)
    in
    try run ()
    with e ->
      let roll () = List.iter (fun u -> u ()) !journal in
      (match Cost_model.faults (Sdb.cost t.sdb) with
      | Some plan -> Fault.with_suspended plan roll
      | None -> roll ());
      raise e

  let apply_with_retry ?rng t event =
    let (), outcome = run_with_retry ?rng (Sdb.cost t.sdb) (fun () -> apply t event) in
    outcome
end
