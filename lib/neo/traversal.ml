module Iset = Set.Make (Int)
module Obs = Mgq_obs.Obs
open Mgq_core.Types

let m_hops = Obs.counter "traversal.hops"
let m_frontier = Obs.histogram "traversal.frontier"

type path = { end_node : node_id; length : int; nodes_rev : node_id list }

let nodes p = List.rev p.nodes_rev

type evaluation = { emit : bool; expand : bool }

let include_and_continue = { emit = true; expand = true }
let include_and_prune = { emit = true; expand = false }

type order = Breadth_first | Depth_first

type uniqueness = Node_global | Node_path | None_allowed

type t = {
  expanders : (string option * direction) list;
  min_depth : int;
  max_depth : int;
  order : order;
  uniqueness : uniqueness;
  evaluator : Db.t -> path -> evaluation;
}

let description () =
  {
    expanders = [];
    min_depth = 1;
    max_depth = max_int;
    order = Breadth_first;
    uniqueness = Node_global;
    evaluator = (fun _ _ -> include_and_continue);
  }

let expand t ?etype dir = { t with expanders = t.expanders @ [ (etype, dir) ] }
let min_depth t d = { t with min_depth = d }
let max_depth t d = { t with max_depth = d }
let order t o = { t with order = o }
let uniqueness t u = { t with uniqueness = u }
let evaluator t e = { t with evaluator = e }

(* The agenda is a functional queue (BFS) or stack (DFS) of pending
   paths, threaded together with the visited set so the resulting Seq
   is pure and can be re-consumed. *)
type agenda = { front : path list; back : path list }

let agenda_pop t a =
  match t.order with
  | Depth_first -> (
    match a.front with
    | p :: rest -> Some (p, { a with front = rest })
    | [] -> ( match a.back with [] -> None | _ -> assert false))
  | Breadth_first -> (
    match a.front with
    | p :: rest -> Some (p, { a with front = rest })
    | [] -> (
      match List.rev a.back with
      | [] -> None
      | p :: rest -> Some (p, { front = rest; back = [] })))

let agenda_push t a children =
  match t.order with
  | Depth_first -> { a with front = children @ a.front }
  | Breadth_first -> { a with back = List.rev_append children a.back }

let children_of db t visited path =
  let step (etype, dir) =
    Db.neighbors db path.end_node ?etype dir
    |> Seq.map (fun n ->
           { end_node = n; length = path.length + 1; nodes_rev = n :: path.nodes_rev })
    |> List.of_seq
  in
  let raw = List.concat_map step t.expanders in
  let n_children = List.length raw in
  Obs.Counter.incr ~by:n_children m_hops;
  Obs.Histogram.observe m_frontier n_children;
  match t.uniqueness with
  | None_allowed -> (raw, visited)
  | Node_path ->
    (List.filter (fun c -> not (List.mem c.end_node path.nodes_rev)) raw, visited)
  | Node_global ->
    (* Mark at generation time so one node is never enqueued twice. *)
    List.fold_left
      (fun (acc, vis) c ->
        if Iset.mem c.end_node vis then (acc, vis)
        else (c :: acc, Iset.add c.end_node vis))
      ([], visited) raw
    |> fun (acc, vis) -> (List.rev acc, vis)

let traverse db t start =
  if t.expanders = [] then invalid_arg "Traversal.traverse: no expander";
  let start_path = { end_node = start; length = 0; nodes_rev = [ start ] } in
  (* One forced step; recursion stays in tail position for non-emitted
     paths. A budget attached around the consumer's [Seq] pull raises
     from inside it, so everything already pulled is the partial
     result. *)
  let step agenda visited =
    match agenda_pop t agenda with
    | None -> None
    | Some (path, agenda) ->
      let evaluation =
        if path.length = 0 then include_and_continue else t.evaluator db path
      in
      let emit =
        evaluation.emit && path.length >= t.min_depth && path.length <= t.max_depth
      in
      let agenda, visited =
        if evaluation.expand && path.length < t.max_depth then begin
          let children, visited = children_of db t visited path in
          (agenda_push t agenda children, visited)
        end
        else (agenda, visited)
      in
      Some ((if emit then Some path else None), agenda, visited)
  in
  let rec drain agenda visited () =
    match step agenda visited with
    | None -> Seq.Nil
    | Some (Some path, agenda, visited) -> Seq.Cons (path, drain agenda visited)
    | Some (None, agenda, visited) -> drain agenda visited ()
  in
  drain { front = [ start_path ]; back = [] } (Iset.singleton start)

let traverse_nodes db t start = Seq.map (fun p -> p.end_node) (traverse db t start)
