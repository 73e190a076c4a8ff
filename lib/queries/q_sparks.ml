(* The workload written against the bitmap engine's navigation API —
   find_type / find_attribute / find_object / neighbors / explode plus
   Objects set algebra, following the paper's Sparksee translations:
   a map structure maintains the counts for top-n queries, and "the
   entire result set must be retrieved and filtered programmatically
   to display only the top-n rows". *)

module Sdb = Mgq_sparks.Sdb
module Objects = Mgq_sparks.Objects
module Straversal = Mgq_sparks.Straversal
module Salgo = Mgq_sparks.Salgo
module Value = Mgq_core.Value
open Mgq_core.Types

let oid_of_uid (ctx : Contexts.sparks) uid =
  Sdb.find_object ctx.Contexts.sdb ctx.Contexts.a_uid (Value.Int uid)

let oid_of_tag (ctx : Contexts.sparks) tag =
  Sdb.find_object ctx.Contexts.sdb ctx.Contexts.a_tag (Value.Str tag)

let uid_of (ctx : Contexts.sparks) oid =
  match Sdb.get_attribute ctx.Contexts.sdb oid ctx.Contexts.a_uid with
  | Value.Int uid -> uid
  | _ -> invalid_arg "uid_of: not a user oid"

let tid_of (ctx : Contexts.sparks) oid =
  match Sdb.get_attribute ctx.Contexts.sdb oid ctx.Contexts.a_tid with
  | Value.Int tid -> tid
  | _ -> invalid_arg "tid_of: not a tweet oid"

let tag_of (ctx : Contexts.sparks) oid =
  match Sdb.get_attribute ctx.Contexts.sdb oid ctx.Contexts.a_tag with
  | Value.Str tag -> tag
  | _ -> invalid_arg "tag_of: not a hashtag oid"

(* Q1.1: no composite predicates in the API — evaluate the range scan
   and materialise, as Section 3.3 describes for select queries. *)
let q1_select (ctx : Contexts.sparks) ~threshold =
  let matching =
    Sdb.select_range ctx.Contexts.sdb ctx.Contexts.a_followers
      ~min_v:(Value.Int (threshold + 1)) ()
  in
  Results.Ids (Results.sort_ids (List.map (uid_of ctx) (Objects.to_list matching)))

(* Conjunctive selection: "Sparksee does not directly support
   filtering on multiple predicates. Therefore, to evaluate a
   disjunctive or conjunctive query, we have to evaluate its
   predicates individually and combine the results appropriately" —
   two range scans and a set intersection. *)
let q1_band (ctx : Contexts.sparks) ~lo ~hi =
  let sdb = ctx.Contexts.sdb in
  let above = Sdb.select_range sdb ctx.Contexts.a_followers ~min_v:(Value.Int (lo + 1)) () in
  let below = Sdb.select_range sdb ctx.Contexts.a_followers ~max_v:(Value.Int (hi - 1)) () in
  let matching = Objects.inter above below in
  Results.Ids (Results.sort_ids (List.map (uid_of ctx) (Objects.to_list matching)))

let q2_1 (ctx : Contexts.sparks) ~uid =
  match oid_of_uid ctx uid with
  | None -> Results.Ids []
  | Some a ->
    let followees = Sdb.neighbors ctx.Contexts.sdb a ctx.Contexts.t_follows Out in
    Results.Ids (Results.sort_ids (List.map (uid_of ctx) (Objects.to_list followees)))

let q2_2 (ctx : Contexts.sparks) ~uid =
  match oid_of_uid ctx uid with
  | None -> Results.Ids []
  | Some a ->
    let sdb = ctx.Contexts.sdb in
    let tweets = Objects.empty () in
    Objects.iter
      (fun f -> Objects.union_into tweets (Sdb.neighbors sdb f ctx.Contexts.t_posts Out))
      (Sdb.neighbors sdb a ctx.Contexts.t_follows Out);
    Results.Ids (Results.sort_ids (List.map (tid_of ctx) (Objects.to_list tweets)))

let q2_3 ?budget (ctx : Contexts.sparks) ~uid =
  match oid_of_uid ctx uid with
  | None -> Results.Tags []
  | Some a ->
    let sdb = ctx.Contexts.sdb in
    let hashtags = Objects.empty () in
    let partial () =
      Results.Tags (List.sort compare (List.map (tag_of ctx) (Objects.to_list hashtags)))
    in
    Results.budgeted (Sdb.cost sdb) budget ~partial (fun () ->
        let tweets = Objects.empty () in
        Objects.iter
          (fun f -> Objects.union_into tweets (Sdb.neighbors sdb f ctx.Contexts.t_posts Out))
          (Sdb.neighbors sdb a ctx.Contexts.t_follows Out);
        Objects.iter
          (fun t -> Objects.union_into hashtags (Sdb.neighbors sdb t ctx.Contexts.t_tags Out))
          tweets)

(* Q2.3 again, but through the Context class instead of raw
   navigation — "queries can also be translated to a series of
   traversals using the Traversal or Context classes"; the paper found
   the raw operations "slightly more efficient ... perhaps due to the
   overhead involved with the traversals". *)
let q2_3_context (ctx : Contexts.sparks) ~uid =
  match oid_of_uid ctx uid with
  | None -> Results.Tags []
  | Some a ->
    let sdb = ctx.Contexts.sdb in
    let c0 = Straversal.Context.start sdb (Objects.of_list [ a ]) in
    let c1 = Straversal.Context.expand c0 ~etype:ctx.Contexts.t_follows Out in
    let c2 = Straversal.Context.expand c1 ~etype:ctx.Contexts.t_posts Out in
    let c3 = Straversal.Context.expand c2 ~etype:ctx.Contexts.t_tags Out in
    Results.Tags
      (List.sort compare
         (List.map (tag_of ctx) (Objects.to_list (Straversal.Context.frontier c3))))

(* Top-n helper: the API cannot limit results, so collect the whole
   counting map and sort it client-side. *)
let q3_1 (ctx : Contexts.sparks) ~uid ~n =
  match oid_of_uid ctx uid with
  | None -> Results.Counted []
  | Some a ->
    let sdb = ctx.Contexts.sdb in
    let counts = Hashtbl.create 64 in
    Objects.iter
      (fun t ->
        Objects.iter
          (fun o -> if o <> a then Results.bump counts (uid_of ctx o))
          (Sdb.neighbors sdb t ctx.Contexts.t_mentions Out))
      (Sdb.neighbors sdb a ctx.Contexts.t_mentions In);
    Results.Counted (Results.top_n_counted n counts)

let q3_2 (ctx : Contexts.sparks) ~tag ~n =
  match oid_of_tag ctx tag with
  | None -> Results.Tag_counts []
  | Some h ->
    let sdb = ctx.Contexts.sdb in
    let counts = Hashtbl.create 64 in
    Objects.iter
      (fun t ->
        Objects.iter
          (fun o -> if o <> h then Results.bump counts (tag_of ctx o))
          (Sdb.neighbors sdb t ctx.Contexts.t_tags Out))
      (Sdb.neighbors sdb h ctx.Contexts.t_tags In);
    Results.Tag_counts (Results.top_n_tag_counts n counts)

(* Q4.1: a separate neighbors call per 1-step followee — the pattern
   the paper calls out as expensive on Sparksee. *)
let q4_1 (ctx : Contexts.sparks) ~uid ~n =
  match oid_of_uid ctx uid with
  | None -> Results.Counted []
  | Some a ->
    let sdb = ctx.Contexts.sdb in
    let friends = Sdb.neighbors sdb a ctx.Contexts.t_follows Out in
    let counts = Hashtbl.create 64 in
    Objects.iter
      (fun f ->
        Objects.iter
          (fun fof ->
            if fof <> a && not (Objects.contains friends fof) then
              Results.bump counts (uid_of ctx fof))
          (Sdb.neighbors sdb f ctx.Contexts.t_follows Out))
      friends;
    Results.Counted (Results.top_n_counted n counts)

let q4_2 (ctx : Contexts.sparks) ~uid ~n =
  match oid_of_uid ctx uid with
  | None -> Results.Counted []
  | Some a ->
    let sdb = ctx.Contexts.sdb in
    let friends = Sdb.neighbors sdb a ctx.Contexts.t_follows Out in
    let counts = Hashtbl.create 64 in
    Objects.iter
      (fun f ->
        Objects.iter
          (fun r ->
            if r <> a && not (Objects.contains friends r) then
              Results.bump counts (uid_of ctx r))
          (Sdb.neighbors sdb f ctx.Contexts.t_follows In))
      friends;
    Results.Counted (Results.top_n_counted n counts)

(* Q5: find the users who mentioned a, then remove (or retain) those
   already following a — set difference over Objects, as in the
   paper. *)
let influence (ctx : Contexts.sparks) ~uid ~n ~current =
  match oid_of_uid ctx uid with
  | None -> Results.Counted []
  | Some a ->
    let sdb = ctx.Contexts.sdb in
    let followers_of_a = Sdb.neighbors sdb a ctx.Contexts.t_follows In in
    let counts = Hashtbl.create 64 in
    Objects.iter
      (fun t ->
        Objects.iter
          (fun u ->
            let keep =
              if current then Objects.contains followers_of_a u
              else u <> a && not (Objects.contains followers_of_a u)
            in
            if keep then Results.bump counts (uid_of ctx u))
          (Sdb.neighbors sdb t ctx.Contexts.t_posts In))
      (Sdb.neighbors sdb a ctx.Contexts.t_mentions In);
    Results.Counted (Results.top_n_counted n counts)

let q5_1 ctx ~uid ~n = influence ctx ~uid ~n ~current:true
let q5_2 ctx ~uid ~n = influence ctx ~uid ~n ~current:false

let q6_1 (ctx : Contexts.sparks) ~uid1 ~uid2 ~max_hops =
  match (oid_of_uid ctx uid1, oid_of_uid ctx uid2) with
  | Some a, Some b ->
    let sp =
      Salgo.Single_pair_shortest_path_bfs.create ctx.Contexts.sdb ~src:a ~dst:b
        ~etypes:[ (ctx.Contexts.t_follows, Both) ]
        ~max_hops
    in
    Results.Path_length (Salgo.Single_pair_shortest_path_bfs.cost sp)
  | _ -> Results.Path_length None
