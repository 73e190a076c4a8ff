(* Sweep-parameter selection for the Figure 4 experiments.

   The paper sweeps each starred query over seed entities of varying
   "size": co-occurrence and recommendation against the number of rows
   the query returns, influence against the user's mention degree,
   shortest path against the path length. These helpers pick such
   seeds deterministically from the reference evaluator's cheap
   indexes. *)

module Rng = Mgq_util.Rng

(* Users ordered by how often they are mentioned, as (degree, uid). *)
let users_by_mention_degree (r : Reference.t) =
  let pairs =
    Array.to_list
      (Array.mapi (fun uid mentions -> (List.length mentions, uid)) r.Reference.mentions_of)
  in
  List.sort compare pairs

(* Users ordered by 2-step follows fan-out (the intermediate-result
   size of Q4.1), as (fanout, uid). Sampling at most [sample] users
   keeps this cheap. *)
let users_by_two_step_fanout (r : Reference.t) =
  let sample = 400 in
  let n = r.Reference.d.Mgq_twitter.Dataset.n_users in
  let rng = Rng.create 7 in
  let candidates =
    if n <= sample then List.init n Fun.id else Rng.sample_without_replacement rng sample n
  in
  let fanout uid =
    List.fold_left
      (fun acc f -> acc + List.length r.Reference.followees.(f))
      0 r.Reference.followees.(uid)
  in
  List.sort compare (List.map (fun uid -> (fanout uid, uid)) candidates)

(* Pick [count] values spread evenly across a sorted (weight, item)
   list — low, middle and high weights all represented, as in the
   paper's x-axis sweeps. *)
let spread count sorted =
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  if n = 0 then []
  else if n <= count then Array.to_list arr
  else List.init count (fun i -> arr.(i * (n - 1) / (max 1 (count - 1))))

(* User pairs bucketed by undirected follows hop distance 1..max_hops:
   [(length, (uid1, uid2)); ...], [per_bucket] pairs per length. *)
let pairs_by_path_length ?(per_bucket = 5) ~max_hops (r : Reference.t) =
  let n = r.Reference.d.Mgq_twitter.Dataset.n_users in
  let rng = Rng.create 11 in
  let buckets = Hashtbl.create 8 in
  let bucket_size l =
    match Hashtbl.find_opt buckets l with Some xs -> List.length !xs | None -> 0
  in
  let add l pair =
    match Hashtbl.find_opt buckets l with
    | Some xs -> xs := pair :: !xs
    | None -> Hashtbl.replace buckets l (ref [ pair ])
  in
  let full () =
    let rec check l = l > max_hops || (bucket_size l >= per_bucket && check (l + 1)) in
    check 1
  in
  let attempts = ref 0 in
  let max_attempts = 200 * per_bucket * max_hops in
  while (not (full ())) && !attempts < max_attempts do
    incr attempts;
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then begin
      match Reference.q6_1 r ~uid1:a ~uid2:b ~max_hops with
      | Results.Path_length (Some l) when l >= 1 && bucket_size l < per_bucket -> add l (a, b)
      | _ -> ()
    end
  done;
  List.concat_map
    (fun l ->
      match Hashtbl.find_opt buckets l with
      | Some xs -> List.map (fun p -> (l, p)) (List.rev !xs)
      | None -> [])
    (List.init max_hops (fun i -> i + 1))
