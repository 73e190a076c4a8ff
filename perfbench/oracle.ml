(* Expected answers, computed outside the timed window from the
   naive [Reference] evaluator over the generated crawl, and decoders
   that turn the server's JSON replies back into canonical
   [Results.t] so both sides compare with [Results.equal]. *)

module Json = Mgq_util.Json
module Results = Mgq_queries.Results
module Reference = Mgq_queries.Reference

exception Undecodable of string

let fail fmt = Printf.ksprintf (fun s -> raise (Undecodable s)) fmt

let member k j = match Json.member k j with Some v -> v | None -> fail "missing %S" k
let int_of = function Json.Int i -> i | _ -> fail "expected an int"
let str_of = function Json.Str s -> s | _ -> fail "expected a string"
let list_of = function Json.Arr xs -> xs | _ -> fail "expected an array"

let parse body = match Json.of_string body with Ok j -> j | Error e -> fail "bad JSON: %s" e

(* ---------------- Cypher replies ---------------- *)

(* Rows canonicalised the way [Q_cypher] does for each Table-2 query:
   id and tag sets sorted, ranked rows kept in their ORDER BY order. *)
let decode_cypher ~id body =
  let rows = List.map list_of (list_of (member "rows" (parse body))) in
  let one = function [ v ] -> v | _ -> fail "expected one column" in
  let two = function [ a; b ] -> (a, b) | _ -> fail "expected two columns" in
  match id with
  | "Q1.1" | "Q2.1" | "Q2.2" -> Results.Ids (Results.sort_ids (List.map (fun r -> int_of (one r)) rows))
  | "Q2.3" -> Results.Tags (List.sort_uniq compare (List.map (fun r -> str_of (one r)) rows))
  | "Q3.2" ->
    Results.Tag_counts
      (List.map (fun r -> let t, c = two r in (str_of t, int_of c)) rows)
  | "Q6.1" -> (
    match rows with
    | [] -> Results.Path_length None
    | [ r ] -> Results.Path_length (Some (int_of (one r)))
    | _ -> fail "more than one path row")
  | _ -> Results.Counted (List.map (fun r -> let a, c = two r in (int_of a, int_of c)) rows)

(* ---------------- checking ---------------- *)

let compare_answer ~expected got =
  if Results.equal expected got then Outcome.Correct
  else
    Outcome.Wrong
      (Printf.sprintf "expected %s, got %s" (Results.to_string expected) (Results.to_string got))

(* Check an HTTP reply: the status first, then the decoded answer. *)
let check_reply ~expected ~decode (status, body) =
  match Outcome.of_status status with
  | Some failure -> failure
  | None -> (
    match decode body with
    | got -> compare_answer ~expected:(Lazy.force expected) got
    | exception Undecodable msg -> Outcome.Wrong ("undecodable reply: " ^ msg))

(* Reference answers for every distinct key of an op list, computed
   on two domains (the reference evaluator is read-only). Popular keys
   repeat, and some reference queries are slow on heavy users. *)
let precompute keys f =
  let distinct = Hashtbl.create 4096 in
  Array.iter (fun k -> Hashtbl.replace distinct k ()) keys;
  let ks = Array.of_seq (Hashtbl.to_seq_keys distinct) in
  let half = Array.length ks / 2 in
  let part lo hi = Array.init (hi - lo) (fun i -> f ks.(lo + i)) in
  let other = Domain.spawn (fun () -> part half (Array.length ks)) in
  let first = part 0 half in
  let second = Domain.join other in
  let tbl = Hashtbl.create (Array.length ks) in
  Array.iteri (fun i v -> Hashtbl.replace tbl ks.(i) v) first;
  Array.iteri (fun i v -> Hashtbl.replace tbl ks.(half + i) v) second;
  Hashtbl.find tbl
