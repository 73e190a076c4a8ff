module Rng = Mgq_util.Rng
module Sampler = Mgq_util.Sampler

type event =
  | New_user of { uid : int; name : string }
  | New_follow of { follower : int; followee : int }
  | Unfollow of { follower : int; followee : int }
  | New_tweet of {
      tid : int;
      author : int;
      text : string;
      mentions : int list;
      tags : string list;
    }

let describe = function
  | New_user { uid; _ } -> Printf.sprintf "new-user u%d" uid
  | New_follow { follower; followee } -> Printf.sprintf "follow u%d->u%d" follower followee
  | Unfollow { follower; followee } -> Printf.sprintf "unfollow u%d->u%d" follower followee
  | New_tweet { tid; author; mentions; tags; _ } ->
    Printf.sprintf "tweet t%d by u%d (%d mentions, %d tags)" tid author (List.length mentions)
      (List.length tags)

(* The event mix: 5 % new users, 50 % follows, 5 % unfollows, the
   remaining 40 % tweets. *)
let p_new_user = 0.05
let p_new_follow = 0.50
let p_unfollow = 0.05

(* A growable follow set per user so unfollows pick real edges and new
   follows avoid duplicates. *)
type t = {
  rng : Rng.t;
  mutable n_users : int;
  mutable next_tid : int;
  mutable next_tag : int; (* next fresh hashtag suffix *)
  followees : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  attractiveness : Sampler.Preferential.t; (* fixed capacity; see note below *)
  capacity : int;
  tag_zipf : Sampler.Zipf.t;
  known_tags : string array;
}

(* The Fenwick-backed preferential sampler has fixed capacity; size it
   with head-room for streamed users and fall back to uniform picks
   beyond it. *)
let capacity_for n = (2 * n) + 1024

let followee_set t u =
  match Hashtbl.find_opt t.followees u with
  | Some set -> set
  | None ->
    let set = Hashtbl.create 8 in
    Hashtbl.replace t.followees u set;
    set

let create ?(seed = 4242) (d : Dataset.t) =
  let capacity = capacity_for d.Dataset.n_users in
  let t =
    {
      rng = Rng.create seed;
      n_users = d.Dataset.n_users;
      next_tid =
        Array.fold_left (fun acc (tw : Dataset.tweet) -> max acc (tw.Dataset.tid + 1)) 0
          d.Dataset.tweets;
      next_tag = Array.length d.Dataset.hashtags;
      followees = Hashtbl.create d.Dataset.n_users;
      attractiveness = Sampler.Preferential.create ~n:capacity ~smoothing:1.0;
      capacity;
      tag_zipf = Sampler.Zipf.create ~n:(max 2 (Array.length d.Dataset.hashtags)) ~s:1.05;
      known_tags = d.Dataset.hashtags;
    }
  in
  Array.iter
    (fun (a, b) ->
      Hashtbl.replace (followee_set t a) b ();
      Sampler.Preferential.add_weight t.attractiveness b 1.0)
    d.Dataset.follows;
  t

let pick_user t =
  let v = Sampler.Preferential.sample t.attractiveness t.rng in
  if v < t.n_users then v else Rng.int t.rng t.n_users

let pick_any_user t = Rng.int t.rng t.n_users

let rec next t =
  let roll = Rng.float t.rng 1.0 in
  if roll < p_new_user then begin
    let uid = t.n_users in
    t.n_users <- uid + 1;
    New_user { uid; name = Printf.sprintf "u%d" uid }
  end
  else if roll < p_new_user +. p_new_follow then begin
    let follower = pick_any_user t in
    let followee = pick_user t in
    let set = followee_set t follower in
    if follower = followee || Hashtbl.mem set followee then next t
    else begin
      Hashtbl.replace set followee ();
      if followee < t.capacity then
        Sampler.Preferential.add_weight t.attractiveness followee 1.0;
      New_follow { follower; followee }
    end
  end
  else if roll < p_new_user +. p_new_follow +. p_unfollow then begin
    (* Unfollow an existing edge; retry on users with none. *)
    let follower = pick_any_user t in
    let set = followee_set t follower in
    (* Materialise the victims as an array: [List.nth] is O(n) per
       event, and [Rng.int _ 0] raises — guard the empty case before
       drawing. *)
    let victims = Array.make (Hashtbl.length set) 0 in
    let fill = ref 0 in
    Hashtbl.iter
      (fun k () ->
        victims.(!fill) <- k;
        incr fill)
      set;
    if Array.length victims = 0 then next t
    else begin
      let followee = victims.(Rng.int t.rng (Array.length victims)) in
      Hashtbl.remove set followee;
      Unfollow { follower; followee }
    end
  end
  else begin
    let author = pick_any_user t in
    let tid = t.next_tid in
    t.next_tid <- tid + 1;
    let mentions =
      if Rng.chance t.rng 0.35 then begin
        let m = pick_user t in
        if m = author then [] else [ m ]
      end
      else []
    in
    let tags =
      if Rng.chance t.rng 0.25 then begin
        if Rng.chance t.rng 0.1 then begin
          (* occasionally a brand-new hashtag trends *)
          let tag = Printf.sprintf "topic%d" t.next_tag in
          t.next_tag <- t.next_tag + 1;
          [ tag ]
        end
        else if Array.length t.known_tags = 0 then []
        else [ t.known_tags.(Sampler.Zipf.sample t.tag_zipf t.rng) ]
      end
      else []
    in
    let text =
      Printf.sprintf "streamed %d%s%s" tid
        (String.concat "" (List.map (fun tag -> " #" ^ tag) tags))
        (String.concat "" (List.map (Printf.sprintf " @u%d") mentions))
    in
    New_tweet { tid; author; text; mentions; tags }
  end

let take t n = List.init n (fun _ -> next t)

module Model = struct
  type m = {
    mutable m_users : int;
    m_followees : (int, (int, unit) Hashtbl.t) Hashtbl.t;
    m_tweets : (int, int) Hashtbl.t; (* author -> count *)
    mutable m_follows : int;
  }

  let of_dataset (d : Dataset.t) =
    let m =
      {
        m_users = d.Dataset.n_users;
        m_followees = Hashtbl.create 256;
        m_tweets = Hashtbl.create 256;
        m_follows = Array.length d.Dataset.follows;
      }
    in
    Array.iter
      (fun (a, b) ->
        let set =
          match Hashtbl.find_opt m.m_followees a with
          | Some s -> s
          | None ->
            let s = Hashtbl.create 8 in
            Hashtbl.replace m.m_followees a s;
            s
        in
        Hashtbl.replace set b ())
      d.Dataset.follows;
    Array.iter
      (fun (tw : Dataset.tweet) ->
        Hashtbl.replace m.m_tweets tw.Dataset.author
          (1 + Option.value ~default:0 (Hashtbl.find_opt m.m_tweets tw.Dataset.author)))
      d.Dataset.tweets;
    m

  let set_of m u =
    match Hashtbl.find_opt m.m_followees u with
    | Some s -> s
    | None ->
      let s = Hashtbl.create 8 in
      Hashtbl.replace m.m_followees u s;
      s

  let apply m = function
    | New_user _ -> m.m_users <- m.m_users + 1
    | New_follow { follower; followee } ->
      Hashtbl.replace (set_of m follower) followee ();
      m.m_follows <- m.m_follows + 1
    | Unfollow { follower; followee } ->
      Hashtbl.remove (set_of m follower) followee;
      m.m_follows <- m.m_follows - 1
    | New_tweet { author; _ } ->
      Hashtbl.replace m.m_tweets author
        (1 + Option.value ~default:0 (Hashtbl.find_opt m.m_tweets author))

  let n_users m = m.m_users

  let followees m u =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) (set_of m u) [])

  let tweet_count m u = Option.value ~default:0 (Hashtbl.find_opt m.m_tweets u)
  let follows_count m = m.m_follows
end
