(* Whole-graph analytics: PageRank and weakly connected components.

   The paper deliberately excludes "algorithms such as PageRank,
   calculating connected components etc." from its workload, arguing
   they are "better suited for distributed graph processing
   platforms". They are implemented here as an extension — partly to
   complete the library, partly to quantify the paper's point: the
   benches show these whole-graph passes dwarf every navigational
   query in the workload.

   Both engines get an implementation in their own idiom: the record
   store walks relationship chains; the bitmap engine works
   frontier-at-a-time with set algebra. A third implementation over
   plain arrays serves as the testing oracle. *)

module Db = Mgq_neo.Db
module Sdb = Mgq_sparks.Sdb
module Objects = Mgq_sparks.Objects
open Mgq_core.Types

let damping = 0.85
let iterations = 20

(* ------------------------------------------------------------------ *)
(* Record-store engine                                                 *)
(* ------------------------------------------------------------------ *)

(* PageRank over one edge type. Returns (node id, score), best first.
   Dangling mass is redistributed uniformly, so scores sum to ~1. *)
let pagerank_neo db ~etype =
  let nodes = Array.of_seq (Db.all_nodes db) in
  let n = Array.length nodes in
  if n = 0 then []
  else begin
    let index = Hashtbl.create n in
    Array.iteri (fun i node -> Hashtbl.replace index node i) nodes;
    let out_degree =
      Array.map (fun node -> Seq.length (Db.edges_of db node ~etype Out)) nodes
    in
    let rank = Array.make n (1. /. float_of_int n) in
    for _ = 1 to iterations do
      let next = Array.make n ((1. -. damping) /. float_of_int n) in
      let dangling = ref 0. in
      Array.iteri
        (fun i node ->
          if out_degree.(i) = 0 then dangling := !dangling +. rank.(i)
          else begin
            let share = rank.(i) /. float_of_int out_degree.(i) in
            Seq.iter
              (fun (e : edge) ->
                let j = Hashtbl.find index e.dst in
                next.(j) <- next.(j) +. (damping *. share))
              (Db.edges_of db node ~etype Out)
          end)
        nodes;
      let dangling_share = damping *. !dangling /. float_of_int n in
      Array.iteri (fun j v -> rank.(j) <- v +. dangling_share) next
    done;
    Array.to_list (Array.mapi (fun i node -> (node, rank.(i))) nodes)
    |> List.sort (fun (n1, r1) (n2, r2) -> if r1 <> r2 then compare r2 r1 else compare n1 n2)
  end

(* Weakly connected components over one edge type: list of components,
   each a sorted node list, largest first. *)
let components_neo db ~etype =
  let visited = Hashtbl.create 1024 in
  let components = ref [] in
  Seq.iter
    (fun start ->
      if not (Hashtbl.mem visited start) then begin
        let component = ref [] in
        let queue = Queue.create () in
        Hashtbl.replace visited start ();
        Queue.push start queue;
        while not (Queue.is_empty queue) do
          let node = Queue.pop queue in
          component := node :: !component;
          Seq.iter
            (fun neighbor ->
              if not (Hashtbl.mem visited neighbor) then begin
                Hashtbl.replace visited neighbor ();
                Queue.push neighbor queue
              end)
            (Db.neighbors db node ~etype Both)
        done;
        components := List.sort compare !component :: !components
      end)
    (Db.all_nodes db);
  List.sort
    (fun a b ->
      let c = compare (List.length b) (List.length a) in
      if c <> 0 then c else compare a b)
    !components

(* ------------------------------------------------------------------ *)
(* Bitmap engine                                                       *)
(* ------------------------------------------------------------------ *)

let pagerank_sparks sdb ~node_types ~etype =
  let nodes =
    List.concat_map (fun t -> Objects.to_list (Sdb.objects_of_type sdb t)) node_types
    |> Array.of_list
  in
  let n = Array.length nodes in
  if n = 0 then []
  else begin
    let index = Hashtbl.create n in
    Array.iteri (fun i oid -> Hashtbl.replace index oid i) nodes;
    let out_degree = Array.map (fun oid -> Sdb.degree sdb oid etype Out) nodes in
    let rank = Array.make n (1. /. float_of_int n) in
    for _ = 1 to iterations do
      let next = Array.make n ((1. -. damping) /. float_of_int n) in
      let dangling = ref 0. in
      Array.iteri
        (fun i oid ->
          if out_degree.(i) = 0 then dangling := !dangling +. rank.(i)
          else begin
            let share = rank.(i) /. float_of_int out_degree.(i) in
            (* explode (not neighbors): parallel edges carry mass
               independently, matching the record-store semantics *)
            Objects.iter
              (fun e ->
                let j = Hashtbl.find index (Sdb.head_of sdb e) in
                next.(j) <- next.(j) +. (damping *. share))
              (Sdb.explode sdb oid etype Out)
          end)
        nodes;
      let dangling_share = damping *. !dangling /. float_of_int n in
      Array.iteri (fun j v -> rank.(j) <- v +. dangling_share) next
    done;
    Array.to_list (Array.mapi (fun i oid -> (oid, rank.(i))) nodes)
    |> List.sort (fun (n1, r1) (n2, r2) -> if r1 <> r2 then compare r2 r1 else compare n1 n2)
  end

(* Frontier-at-a-time connected components with Objects algebra. *)
let components_sparks sdb ~node_types ~etype =
  let all = Objects.empty () in
  List.iter (fun t -> Objects.union_into all (Sdb.objects_of_type sdb t)) node_types;
  let remaining = ref (Objects.copy all) in
  let components = ref [] in
  while not (Objects.is_empty !remaining) do
    let start = List.hd (Objects.to_list !remaining) in
    let visited = Objects.of_list [ start ] in
    let frontier = ref (Objects.of_list [ start ]) in
    while not (Objects.is_empty !frontier) do
      let next = Objects.empty () in
      Objects.iter
        (fun oid -> Objects.union_into next (Sdb.neighbors sdb oid etype Both))
        !frontier;
      let fresh = Objects.difference next visited in
      Objects.union_into visited fresh;
      frontier := fresh
    done;
    components := Objects.to_list visited :: !components;
    remaining := Objects.difference !remaining visited
  done;
  List.sort
    (fun a b ->
      let c = compare (List.length b) (List.length a) in
      if c <> 0 then c else compare a b)
    !components

(* ------------------------------------------------------------------ *)
(* Reference oracle over the raw dataset                               *)
(* ------------------------------------------------------------------ *)

let pagerank_reference (r : Reference.t) =
  let n = r.Reference.d.Mgq_twitter.Dataset.n_users in
  let rank = Array.make n (1. /. float_of_int n) in
  for _ = 1 to iterations do
    let next = Array.make n ((1. -. damping) /. float_of_int n) in
    let dangling = ref 0. in
    for u = 0 to n - 1 do
      match r.Reference.followees.(u) with
      | [] -> dangling := !dangling +. rank.(u)
      | followees ->
        let share = rank.(u) /. float_of_int (List.length followees) in
        List.iter (fun v -> next.(v) <- next.(v) +. (damping *. share)) followees
    done;
    let dangling_share = damping *. !dangling /. float_of_int n in
    Array.iteri (fun j v -> rank.(j) <- v +. dangling_share) next
  done;
  rank

let components_reference (r : Reference.t) =
  let n = r.Reference.d.Mgq_twitter.Dataset.n_users in
  let visited = Array.make n false in
  let components = ref [] in
  for start = 0 to n - 1 do
    if not visited.(start) then begin
      let component = ref [] in
      let queue = Queue.create () in
      visited.(start) <- true;
      Queue.push start queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        component := u :: !component;
        List.iter
          (fun v ->
            if not visited.(v) then begin
              visited.(v) <- true;
              Queue.push v queue
            end)
          (r.Reference.followees.(u) @ r.Reference.followers.(u))
      done;
      components := List.sort compare !component :: !components
    end
  done;
  List.sort
    (fun a b ->
      let c = compare (List.length b) (List.length a) in
      if c <> 0 then c else compare a b)
    !components
