(* The Table 2 query workload as a uniform registry: every query with
   its category, Cypher text, and four interchangeable runners
   (reference oracle, Cypher, Neo core API, Sparksee API). The benches
   and the cross-engine equivalence tests both drive this table. *)

type args = {
  uid : int;
  uid2 : int;
  tag : string;
  n : int;
  threshold : int;
  max_hops : int;
}

let default_args = { uid = 0; uid2 = 1; tag = "topic0"; n = 10; threshold = 10; max_hops = 3 }

let params a =
  let module Value = Mgq_core.Value in
  [
    ("uid", Value.Int a.uid);
    ("u1", Value.Int a.uid);
    ("u2", Value.Int a.uid2);
    ("tag", Value.Str a.tag);
    ("n", Value.Int a.n);
    ("k", Value.Int a.threshold);
  ]

type query = {
  id : string;
  category : string;
  description : string;
  starred : bool; (* discussed in detail in the paper (Figure 4) *)
  cypher_text : args -> string;
  run_reference : Reference.t -> args -> Results.t;
  run_cypher : Contexts.neo -> args -> Results.t;
  run_neo_api : Contexts.neo -> args -> Results.t;
  run_sparks : Contexts.sparks -> args -> Results.t;
}

let all : query list =
  [
    {
      id = "Q1.1";
      category = "Select";
      description = "All users with a follower count greater than a threshold";
      starred = false;
      cypher_text = (fun _ -> Q_cypher.text_q1);
      run_reference = (fun r a -> Reference.q1_select r ~threshold:a.threshold);
      run_cypher = (fun c a -> Q_cypher.q1_select c ~threshold:a.threshold);
      run_neo_api = (fun c a -> Q_neo_api.q1_select c ~threshold:a.threshold);
      run_sparks = (fun c a -> Q_sparks.q1_select c ~threshold:a.threshold);
    };
    {
      id = "Q2.1";
      category = "Adjacency (1-step)";
      description = "All the followees of a given user A";
      starred = false;
      cypher_text = (fun _ -> Q_cypher.text_q2_1);
      run_reference = (fun r a -> Reference.q2_1 r ~uid:a.uid);
      run_cypher = (fun c a -> Q_cypher.q2_1 c ~uid:a.uid);
      run_neo_api = (fun c a -> Q_neo_api.q2_1 c ~uid:a.uid);
      run_sparks = (fun c a -> Q_sparks.q2_1 c ~uid:a.uid);
    };
    {
      id = "Q2.2";
      category = "Adjacency (2-step)";
      description = "All the tweets posted by followees of A";
      starred = false;
      cypher_text = (fun _ -> Q_cypher.text_q2_2);
      run_reference = (fun r a -> Reference.q2_2 r ~uid:a.uid);
      run_cypher = (fun c a -> Q_cypher.q2_2 c ~uid:a.uid);
      run_neo_api = (fun c a -> Q_neo_api.q2_2 c ~uid:a.uid);
      run_sparks = (fun c a -> Q_sparks.q2_2 c ~uid:a.uid);
    };
    {
      id = "Q2.3";
      category = "Adjacency (3-step)";
      description = "All the hashtags used by followees of A";
      starred = false;
      cypher_text = (fun _ -> Q_cypher.text_q2_3);
      run_reference = (fun r a -> Reference.q2_3 r ~uid:a.uid);
      run_cypher = (fun c a -> Q_cypher.q2_3 c ~uid:a.uid);
      run_neo_api = (fun c a -> Q_neo_api.q2_3 c ~uid:a.uid);
      run_sparks = (fun c a -> Q_sparks.q2_3 c ~uid:a.uid);
    };
    {
      id = "Q3.1";
      category = "Co-occurrence";
      description = "Top-n users most mentioned with user A";
      starred = true;
      cypher_text = (fun _ -> Q_cypher.text_q3_1);
      run_reference = (fun r a -> Reference.q3_1 r ~uid:a.uid ~n:a.n);
      run_cypher = (fun c a -> Q_cypher.q3_1 c ~uid:a.uid ~n:a.n);
      run_neo_api = (fun c a -> Q_neo_api.q3_1 c ~uid:a.uid ~n:a.n);
      run_sparks = (fun c a -> Q_sparks.q3_1 c ~uid:a.uid ~n:a.n);
    };
    {
      id = "Q3.2";
      category = "Co-occurrence";
      description = "Top-n most co-occurring hashtags with hashtag H";
      starred = false;
      cypher_text = (fun _ -> Q_cypher.text_q3_2);
      run_reference = (fun r a -> Reference.q3_2 r ~tag:a.tag ~n:a.n);
      run_cypher = (fun c a -> Q_cypher.q3_2 c ~tag:a.tag ~n:a.n);
      run_neo_api = (fun c a -> Q_neo_api.q3_2 c ~tag:a.tag ~n:a.n);
      run_sparks = (fun c a -> Q_sparks.q3_2 c ~tag:a.tag ~n:a.n);
    };
    {
      id = "Q4.1";
      category = "Recommendation";
      description = "Top-n followees of A's followees who A is not following yet";
      starred = true;
      cypher_text = (fun _ -> Q_cypher.text_q4_1);
      run_reference = (fun r a -> Reference.q4_1 r ~uid:a.uid ~n:a.n);
      run_cypher = (fun c a -> Q_cypher.q4_1 c ~uid:a.uid ~n:a.n);
      run_neo_api = (fun c a -> Q_neo_api.q4_1 c ~uid:a.uid ~n:a.n);
      run_sparks = (fun c a -> Q_sparks.q4_1 c ~uid:a.uid ~n:a.n);
    };
    {
      id = "Q4.2";
      category = "Recommendation";
      description = "Top-n followers of A's followees who A is not following yet";
      starred = false;
      cypher_text = (fun _ -> Q_cypher.text_q4_2);
      run_reference = (fun r a -> Reference.q4_2 r ~uid:a.uid ~n:a.n);
      run_cypher = (fun c a -> Q_cypher.q4_2 c ~uid:a.uid ~n:a.n);
      run_neo_api = (fun c a -> Q_neo_api.q4_2 c ~uid:a.uid ~n:a.n);
      run_sparks = (fun c a -> Q_sparks.q4_2 c ~uid:a.uid ~n:a.n);
    };
    {
      id = "Q5.1";
      category = "Influence (current)";
      description = "Top-n users who have mentioned A who are followers of A";
      starred = true;
      cypher_text = (fun _ -> Q_cypher.text_q5_1);
      run_reference = (fun r a -> Reference.q5_1 r ~uid:a.uid ~n:a.n);
      run_cypher = (fun c a -> Q_cypher.q5_1 c ~uid:a.uid ~n:a.n);
      run_neo_api = (fun c a -> Q_neo_api.q5_1 c ~uid:a.uid ~n:a.n);
      run_sparks = (fun c a -> Q_sparks.q5_1 c ~uid:a.uid ~n:a.n);
    };
    {
      id = "Q5.2";
      category = "Influence (potential)";
      description = "Top-n users who have mentioned A but are not direct followers of A";
      starred = true;
      cypher_text = (fun _ -> Q_cypher.text_q5_2);
      run_reference = (fun r a -> Reference.q5_2 r ~uid:a.uid ~n:a.n);
      run_cypher = (fun c a -> Q_cypher.q5_2 c ~uid:a.uid ~n:a.n);
      run_neo_api = (fun c a -> Q_neo_api.q5_2 c ~uid:a.uid ~n:a.n);
      run_sparks = (fun c a -> Q_sparks.q5_2 c ~uid:a.uid ~n:a.n);
    };
    {
      id = "Q6.1";
      category = "Shortest Path";
      description = "Shortest path between two users connected by follows edges";
      starred = true;
      cypher_text = (fun a -> Q_cypher.text_q6_1 a.max_hops);
      run_reference = (fun r a -> Reference.q6_1 r ~uid1:a.uid ~uid2:a.uid2 ~max_hops:a.max_hops);
      run_cypher = (fun c a -> Q_cypher.q6_1 c ~uid1:a.uid ~uid2:a.uid2 ~max_hops:a.max_hops);
      run_neo_api = (fun c a -> Q_neo_api.q6_1 c ~uid1:a.uid ~uid2:a.uid2 ~max_hops:a.max_hops);
      run_sparks = (fun c a -> Q_sparks.q6_1 c ~uid1:a.uid ~uid2:a.uid2 ~max_hops:a.max_hops);
    };
  ]

let find id = List.find_opt (fun q -> q.id = id) all

(* Cost classes for admission control: Table 2's categories span
   orders of magnitude of db hits, and an overloaded server sheds the
   expensive frontier-exploding queries first, the cheap point
   lookups last. *)
type cost_class = Cheap | Moderate | Expensive

let cost_class_to_string = function
  | Cheap -> "cheap"
  | Moderate -> "moderate"
  | Expensive -> "expensive"

let cost_class_of_category = function
  | "Select" | "Adjacency (1-step)" | "Adjacency (2-step)" -> Cheap
  | "Adjacency (3-step)" | "Co-occurrence" -> Moderate
  (* Recommendation, Influence, Shortest Path: multi-step frontiers. *)
  | _ -> Expensive

let cost_class q = cost_class_of_category q.category
