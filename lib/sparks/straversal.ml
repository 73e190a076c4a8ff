module Obs = Mgq_obs.Obs

let m_hops = Obs.counter "straversal.hops"
let m_frontier = Obs.histogram "straversal.frontier"

type order = Bfs | Dfs

type t = {
  db : Sdb.t;
  start : int;
  expanders : (int * Mgq_core.Types.direction) list;
  order : order;
  max_depth : int;
}

let create db ~start = { db; start; expanders = []; order = Bfs; max_depth = max_int }
let add_edge_type t etype dir = { t with expanders = t.expanders @ [ (etype, dir) ] }
let set_order t order = { t with order }
let set_max_depth t max_depth = { t with max_depth }

let run t =
  if t.expanders = [] then invalid_arg "Straversal.run: no edge type added";
  let visited = Hashtbl.create 256 in
  Hashtbl.replace visited t.start ();
  let results = ref [] in
  (* Agenda of (node, depth); list used as stack (DFS) or via rev-queue
     emulation (BFS handled by appending). *)
  let rec go agenda =
    match agenda with
    | [] -> ()
    | (node, depth) :: rest ->
      let children =
        if depth >= t.max_depth then []
        else
          List.concat_map
            (fun (etype, dir) -> Objects.to_list (Sdb.neighbors t.db node etype dir))
            t.expanders
          |> List.filter (fun n ->
                 if Hashtbl.mem visited n then false
                 else begin
                   Hashtbl.replace visited n ();
                   results := (n, depth + 1) :: !results;
                   true
                 end)
          |> List.map (fun n -> (n, depth + 1))
      in
      Obs.Counter.incr ~by:(List.length children) m_hops;
      (match t.order with
      | Dfs -> go (children @ rest)
      | Bfs -> go (rest @ children))
  in
  go [ (t.start, 0) ];
  List.rev !results

module Context = struct
  type ctx = { db : Sdb.t; frontier : Objects.t; visited : Objects.t; depth : int }

  let start db frontier =
    { db; frontier = Objects.copy frontier; visited = Objects.copy frontier; depth = 0 }

  let expand ctx ~etype dir =
    Obs.Trace.with_span "straversal.expand"
      ~attrs:[ ("depth", string_of_int (ctx.depth + 1)) ]
    @@ fun () ->
    let next = Objects.empty () in
    Objects.iter
      (fun node -> Objects.union_into next (Sdb.neighbors ctx.db node etype dir))
      ctx.frontier;
    let fresh = Objects.difference next ctx.visited in
    Obs.Counter.incr ~by:(Objects.count fresh) m_hops;
    Obs.Histogram.observe m_frontier (Objects.count fresh);
    Obs.Trace.note_int "frontier" (Objects.count fresh);
    {
      ctx with
      frontier = fresh;
      visited = Objects.union ctx.visited fresh;
      depth = ctx.depth + 1;
    }

  let frontier ctx = Objects.copy ctx.frontier
  let visited ctx = Objects.copy ctx.visited
  let depth ctx = ctx.depth
end
