(* Fixed op lists, drawn from the seed argument. A run always executes
   the whole list (a warm-up prefix untimed, the rest timed), never "as
   many ops as fit": the work, and so the heap and GC schedule, is
   the same on every run of one seed. *)

module Rng = Mgq_util.Rng
module Dataset = Mgq_twitter.Dataset
module Stream = Mgq_twitter.Stream
module Workload = Mgq_queries.Workload

(* Each workload draws from its own stream, split off the seed. *)
let rng ~seed ~salt = Rng.create ((seed * 1_000_003) + salt)

(* [count] kinds in the exact proportions of [weights] (largest
   remainders round), shuffled by [rng]: the seed chooses the order and
   the arguments, never the mix, so op-mix luck cannot move a run. *)
let deck rng weights count =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  let shares = List.map (fun (v, w) -> (v, w * count / total, w * count mod total)) weights in
  let short = count - List.fold_left (fun acc (_, k, _) -> acc + k) 0 shares in
  let by_remainder = List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a) shares in
  let extra = List.filteri (fun i _ -> i < short) by_remainder |> List.map (fun (v, _, _) -> v) in
  let cards =
    List.concat_map
      (fun (v, k, _) -> List.init (k + if List.memq v extra then 1 else 0) (fun _ -> v))
      shares
  in
  let a = Array.of_list cards in
  Rng.shuffle rng a;
  a

(* A warm-up deck, then a timed deck: both segments have the exact mix. *)
let segments rng weights ~warmup ~count =
  Array.append (deck rng weights warmup) (deck rng weights (count - warmup))

(* ---------------- Cypher texts ---------------- *)

type cypher = { query : Workload.query; args : Workload.args; spliced : bool }

let table2 id =
  match Workload.find id with Some q -> q | None -> invalid_arg ("no Table-2 query " ^ id)

(* The users the Cypher mix draws from: all but the 5%
   with the largest 2-step follows fan-out (followees' followees plus
   followees' followers, what Q4.1 and Q4.2 expand). The fan-out is
   power-law: above that cut one Q4.2 through Cypher can run for
   seconds, so a run's time would hang on whether the seed drew a
   handful of such users. *)
let light_users (d : Dataset.t) =
  let n = d.Dataset.n_users in
  let degree = Array.make n 0 and followees = Array.make n [] in
  Array.iter
    (fun (a, b) ->
      degree.(a) <- degree.(a) + 1;
      degree.(b) <- degree.(b) + 1;
      followees.(a) <- b :: followees.(a))
    d.Dataset.follows;
  let fan u = List.fold_left (fun acc f -> acc + degree.(f)) 0 followees.(u) in
  let by_fan = Array.init n (fun u -> (fan u, u)) in
  Array.sort compare by_fan;
  Array.map snd (Array.sub by_fan 0 (n * 95 / 100))

(* Args for one op: uids uniform over [users], the tag uniform over
   the vocabulary, the Q1.1 threshold at 1% of users. *)
let draw_args rng (d : Dataset.t) users =
  let pick () = users.(Rng.int rng (Array.length users)) in
  let uid = pick () in
  let uid2 = match pick () with u when u = uid -> users.(0) | u -> u in
  {
    Workload.uid;
    uid2;
    tag = d.Dataset.hashtags.(Rng.int rng (Array.length d.Dataset.hashtags));
    n = 10;
    threshold = max 1 (d.Dataset.n_users / 100);
    max_hops = 3;
  }

(* Only texts that take [$uid] can be spliced. *)
let spliceable (q : Workload.query) =
  let text = q.Workload.cypher_text Workload.default_args in
  let rec has i =
    i + 4 <= String.length text && (String.sub text i 4 = "$uid" || has (i + 1))
  in
  has 0

(* Spliced ops are spread evenly, one in every [splice_every]
   spliceable ops of each segment. *)
let cypher_ops ~seed (d : Dataset.t) ~weights ~splice_every ~warmup ~count =
  let rng = rng ~seed ~salt:2 in
  let weights = List.map (fun (id, w) -> (table2 id, w)) weights in
  let queries = segments rng weights ~warmup ~count in
  let users = light_users d in
  let nth = ref 0 in
  Array.mapi
    (fun i query ->
      if i = warmup then nth := 0;
      let spliced =
        spliceable query
        && begin
          incr nth;
          !nth mod splice_every = 0
        end
      in
      { query; args = draw_args rng d users; spliced })
    queries

(* ---------------- ingest ---------------- *)

type ingest =
  | Event of Stream.event
  | Read_followees of int  (** Q2.1 *)
  | Read_timeline of int  (** Q2.2 *)
  | Checkpoint

type ingest_kind = K_event | K_followees | K_timeline

(* [count] ops: stream events with reads mixed in at
   [read_per_mille] (half Q2.1, half Q2.2), and [checkpoints]
   checkpoints spread evenly over the ops after the warm-up prefix.
   Reads target users that exist at that point of the stream. *)
let ingest_ops ~seed (d : Dataset.t) ~read_per_mille ~warmup ~checkpoints ~count =
  let rng = rng ~seed ~salt:4 in
  let stream = Stream.create ~seed:(seed + 17) d in
  let users = ref d.Dataset.n_users in
  let half = read_per_mille / 2 in
  let kinds =
    segments rng
      [ (K_event, 1000 - (2 * half)); (K_followees, half); (K_timeline, half) ]
      ~warmup ~count
  in
  let timed = count - warmup in
  let is_checkpoint i =
    i >= warmup && checkpoints > 0
    && (i - warmup + 1) mod (timed / checkpoints) = 0
    && (i - warmup + 1) / (timed / checkpoints) <= checkpoints
  in
  Array.mapi
    (fun i kind ->
      if is_checkpoint i then Checkpoint
      else
        match kind with
        | K_followees -> Read_followees (Rng.int rng !users)
        | K_timeline -> Read_timeline (Rng.int rng !users)
        | K_event -> (
          match Stream.next stream with
          | Stream.New_user _ as e ->
            incr users;
            Event e
          | e -> Event e))
    kinds