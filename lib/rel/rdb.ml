module Cost_model = Mgq_storage.Cost_model
module Sim_disk = Mgq_storage.Sim_disk
module Record_store = Mgq_storage.Record_store
module Blob_store = Mgq_storage.Blob_store
module Dataset = Mgq_twitter.Dataset
module Import_report = Mgq_twitter.Import_report
module Timing = Mgq_util.Stats.Timing

(* Non-unique hash index: key -> row ids, charging one db hit per
   probe (directory access); row fetches are charged by the row reads
   themselves. *)
type multi_index = (int, int list ref) Hashtbl.t

type t = {
  disk : Sim_disk.t;
  users : Record_store.t; (* uid, name_handle, followers *)
  follows : Record_store.t; (* src_row, dst_row *)
  tweets : Record_store.t; (* tid, author_row, text_handle *)
  mentions : Record_store.t; (* tweet_row, user_row *)
  tags : Record_store.t; (* tweet_row, hashtag_row *)
  hashtags : Record_store.t; (* tag_handle *)
  strings : Blob_store.t;
  ix_user_uid : (int, int) Hashtbl.t; (* unique *)
  ix_hashtag_tag : (string, int) Hashtbl.t; (* unique *)
  ix_follows_src : multi_index;
  ix_follows_dst : multi_index;
  ix_tweets_author : multi_index;
  ix_mentions_user : multi_index;
  ix_mentions_tweet : multi_index;
  ix_tags_tweet : multi_index;
  ix_tags_hashtag : multi_index;
}

let create ?config ?pool_pages () =
  let disk = Sim_disk.create ?config ?pool_pages () in
  {
    disk;
    users = Record_store.create disk ~fields:3;
    follows = Record_store.create disk ~fields:2;
    tweets = Record_store.create disk ~fields:3;
    mentions = Record_store.create disk ~fields:2;
    tags = Record_store.create disk ~fields:2;
    hashtags = Record_store.create disk ~fields:1;
    strings = Blob_store.create disk ~name:"rel.strings";
    ix_user_uid = Hashtbl.create 1024;
    ix_hashtag_tag = Hashtbl.create 64;
    ix_follows_src = Hashtbl.create 1024;
    ix_follows_dst = Hashtbl.create 1024;
    ix_tweets_author = Hashtbl.create 1024;
    ix_mentions_user = Hashtbl.create 1024;
    ix_mentions_tweet = Hashtbl.create 1024;
    ix_tags_tweet = Hashtbl.create 256;
    ix_tags_hashtag = Hashtbl.create 256;
  }

let disk t = t.disk
let cost t = Sim_disk.cost t.disk

let index_add index key row =
  match Hashtbl.find_opt index key with
  | Some rows -> rows := row :: !rows
  | None -> Hashtbl.replace index key (ref [ row ])

(* A B-tree-shaped probe: descending the index costs one access per
   level (fan-out 16 over the indexed table's rows), and the matching
   leaf entries cost one access each. This is what makes multi-hop
   joins grow with table size, while the graph engines' adjacency
   stays O(degree). *)
let btree_depth rows =
  let rec levels n acc = if n <= 16 then acc else levels (n / 16) (acc + 1) in
  1 + levels (max 1 rows) 0

let probe t index ~table key =
  let matches =
    match Hashtbl.find_opt index key with Some rows -> List.rev !rows | None -> []
  in
  Cost_model.record_db_hit
    ~n:(btree_depth (Record_store.count table) + List.length matches)
    (cost t);
  matches

(* ---------------- loading ---------------- *)

let load t (d : Dataset.t) =
  let wall_start = Timing.now_ns () in
  let sim_ms () = Cost_model.simulated_ms (Cost_model.snapshot (cost t)) in
  let sim_start = sim_ms () in
  let series = ref [] in
  let batched label total f =
    let batch = 2000 in
    let points = ref [] in
    let start_sim = ref (sim_ms ()) in
    let start_wall = ref (Timing.now_ns ()) in
    for i = 0 to total - 1 do
      f i;
      if (i + 1) mod batch = 0 || i = total - 1 then begin
        let now_sim = sim_ms () and now_wall = Timing.now_ns () in
        points :=
          {
            Import_report.cumulative = i + 1;
            batch_sim_ms = now_sim -. !start_sim;
            batch_wall_ms = Int64.to_float (Int64.sub now_wall !start_wall) /. 1e6;
          }
          :: !points;
        start_sim := now_sim;
        start_wall := now_wall
      end
    done;
    series := { Import_report.label; points = List.rev !points } :: !series
  in
  let followers = Dataset.follower_counts d in
  let user_rows = Array.make d.Dataset.n_users (-1) in
  batched "users" d.Dataset.n_users (fun i ->
      let row = Record_store.allocate t.users in
      let name_handle = Blob_store.append t.strings d.Dataset.user_names.(i) in
      Record_store.set_record t.users ~id:row [| i; name_handle; followers.(i) |];
      Hashtbl.replace t.ix_user_uid i row;
      user_rows.(i) <- row);
  let hashtag_rows = Array.make (max 1 (Array.length d.Dataset.hashtags)) (-1) in
  batched "hashtags" (Array.length d.Dataset.hashtags) (fun i ->
      let row = Record_store.allocate t.hashtags in
      let handle = Blob_store.append t.strings d.Dataset.hashtags.(i) in
      Record_store.set_record t.hashtags ~id:row [| handle |];
      Hashtbl.replace t.ix_hashtag_tag d.Dataset.hashtags.(i) row;
      hashtag_rows.(i) <- row);
  let tweet_rows = Array.make (max 1 (Array.length d.Dataset.tweets)) (-1) in
  batched "tweets" (Array.length d.Dataset.tweets) (fun i ->
      let tw = d.Dataset.tweets.(i) in
      let row = Record_store.allocate t.tweets in
      let text_handle = Blob_store.append t.strings tw.Dataset.text in
      Record_store.set_record t.tweets ~id:row
        [| tw.Dataset.tid; user_rows.(tw.Dataset.author); text_handle |];
      index_add t.ix_tweets_author user_rows.(tw.Dataset.author) row;
      tweet_rows.(i) <- row);
  batched "follows" (Array.length d.Dataset.follows) (fun i ->
      let a, b = d.Dataset.follows.(i) in
      let row = Record_store.allocate t.follows in
      Record_store.set_record t.follows ~id:row [| user_rows.(a); user_rows.(b) |];
      index_add t.ix_follows_src user_rows.(a) row;
      index_add t.ix_follows_dst user_rows.(b) row);
  let mention_pairs =
    Array.of_list
      (List.concat
         (Array.to_list
            (Array.mapi
               (fun i (tw : Dataset.tweet) ->
                 List.map (fun u -> (i, u)) tw.Dataset.mention_targets)
               d.Dataset.tweets)))
  in
  batched "mentions" (Array.length mention_pairs) (fun i ->
      let tweet_idx, u = mention_pairs.(i) in
      let row = Record_store.allocate t.mentions in
      Record_store.set_record t.mentions ~id:row [| tweet_rows.(tweet_idx); user_rows.(u) |];
      index_add t.ix_mentions_user user_rows.(u) row;
      index_add t.ix_mentions_tweet tweet_rows.(tweet_idx) row);
  let tag_pairs =
    Array.of_list
      (List.concat
         (Array.to_list
            (Array.mapi
               (fun i (tw : Dataset.tweet) -> List.map (fun h -> (i, h)) tw.Dataset.tag_targets)
               d.Dataset.tweets)))
  in
  batched "tags" (Array.length tag_pairs) (fun i ->
      let tweet_idx, h = tag_pairs.(i) in
      let row = Record_store.allocate t.tags in
      Record_store.set_record t.tags ~id:row [| tweet_rows.(tweet_idx); hashtag_rows.(h) |];
      index_add t.ix_tags_tweet tweet_rows.(tweet_idx) row;
      index_add t.ix_tags_hashtag hashtag_rows.(h) row);
  Sim_disk.flush_all t.disk;
  {
    Import_report.node_series = [];
    edge_series = List.rev !series;
    intermediate_sim_ms = 0.;
    index_sim_ms = 0.;
    total_sim_ms = sim_ms () -. sim_start;
    total_wall_ms = Int64.to_float (Int64.sub (Timing.now_ns ()) wall_start) /. 1e6;
    size_words = Sim_disk.disk_bytes t.disk / 8;
  }

(* ---------------- row access ---------------- *)

let user_row t ~uid =
  Cost_model.record_db_hit ~n:(btree_depth (Record_store.count t.users)) (cost t);
  Hashtbl.find_opt t.ix_user_uid uid

let hashtag_row t ~tag =
  Cost_model.record_db_hit ~n:(btree_depth (Record_store.count t.hashtags)) (cost t);
  Hashtbl.find_opt t.ix_hashtag_tag tag

let user_uid t row = Record_store.get t.users ~id:row ~field:0
let user_followers t row = Record_store.get t.users ~id:row ~field:2
let tweet_tid t row = Record_store.get t.tweets ~id:row ~field:0

let tweet_author_uid t row =
  user_uid t (Record_store.get t.tweets ~id:row ~field:1)

(* ---------------- probes ---------------- *)

(* Joining through a link table costs: index probe + one row fetch per
   match to extract the far column — the classic index-nested-loop
   shape. *)
let followees_of t ~user_row =
  List.map
    (fun row -> Record_store.get t.follows ~id:row ~field:1)
    (probe t t.ix_follows_src ~table:t.follows user_row)

let followers_of t ~user_row =
  List.map
    (fun row -> Record_store.get t.follows ~id:row ~field:0)
    (probe t t.ix_follows_dst ~table:t.follows user_row)

let tweets_by t ~user_row = probe t t.ix_tweets_author ~table:t.tweets user_row

let mentions_of_user t ~user_row = probe t t.ix_mentions_user ~table:t.mentions user_row
let mentions_in_tweet t ~tweet_row = probe t t.ix_mentions_tweet ~table:t.mentions tweet_row
let mention_target t ~mention_row = Record_store.get t.mentions ~id:mention_row ~field:1
let mention_tweet t ~mention_row = Record_store.get t.mentions ~id:mention_row ~field:0
let tags_in_tweet t ~tweet_row = probe t t.ix_tags_tweet ~table:t.tags tweet_row
let tweets_tagging t ~hashtag_row = probe t t.ix_tags_hashtag ~table:t.tags hashtag_row
let tag_hashtag t ~tag_row = Record_store.get t.tags ~id:tag_row ~field:1
let tag_tweet t ~tag_row = Record_store.get t.tags ~id:tag_row ~field:0

let hashtag_text t row = Blob_store.read t.strings (Record_store.get t.hashtags ~id:row ~field:0)

let scan_users t f =
  for row = 0 to Record_store.count t.users - 1 do
    f row
  done

let user_count t = Record_store.count t.users
let follows_count t = Record_store.count t.follows
