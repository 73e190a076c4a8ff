(* In-memory span recorder for the traced run. The benchmark opens a
   span around each public call it makes into a layer; spans nest
   through an explicit stack, carry the op they belong to, and are
   written out only when the run ends. A span's self time is its
   duration minus the durations of its direct children. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 for a root *)
  start_ns : int;
  mutable stop_ns : int;
}

type t = {
  clock : unit -> int;
  mutable spans : span array;
  mutable n : int;
  mutable stack : int list;
}

let create ?(clock = fun () -> Int64.to_int (Mgq_util.Stats.Timing.now_ns ())) () =
  { clock; spans = [||]; n = 0; stack = [] }

let with_span t ~op name f =
  let id = t.n in
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let s = { id; name; op; parent; start_ns = t.clock (); stop_ns = 0 } in
  if id = Array.length t.spans then begin
    let grown = Array.make (max 1024 (2 * id)) s in
    Array.blit t.spans 0 grown 0 id;
    t.spans <- grown
  end;
  t.spans.(id) <- s;
  t.n <- id + 1;
  t.stack <- id :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop_ns <- t.clock ();
      t.stack <- List.tl t.stack)
    f

let duration s = s.stop_ns - s.start_ns

(* (name, total self ns, span count), in order of first appearance. *)
let self_times t =
  let child_ns = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then child_ns.(s.parent) <- child_ns.(s.parent) + duration s
  done;
  let order = ref [] and totals = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    let self = duration s - child_ns.(i) in
    match Hashtbl.find_opt totals s.name with
    | Some (ns, c) -> Hashtbl.replace totals s.name (ns + self, c + 1)
    | None ->
      order := s.name :: !order;
      Hashtbl.replace totals s.name (self, 1)
  done;
  List.rev_map
    (fun name ->
      let ns, c = Hashtbl.find totals name in
      (name, ns, c))
    !order

(* Total duration of every span named [name], children included. *)
let inclusive_ns t name =
  let total = ref 0 in
  for i = 0 to t.n - 1 do
    if t.spans.(i).name = name then total := !total + duration t.spans.(i)
  done;
  !total

let write_tsv t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "id\tparent\top\tname\tstart_ns\tstop_ns\n";
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" s.id s.parent s.op s.name s.start_ns s.stop_ns
  done
