type labels = (string * string) list

let canon (labels : labels) = List.sort compare labels

(* Domain safety: the registry is process-wide and any domain may
   report into it. A counter is one atomic (a plain mutable int would
   drop increments under concurrent read-modify-write), gauges and
   histograms take a per-metric mutex (their updates touch several
   fields), and the registry table itself is mutex-guarded so two
   domains registering the same metric cannot corrupt the Hashtbl or
   observe two distinct handles for one (name, labels). The per-access
   store.* counters are not bumped at all: they are derived counters,
   read from the storage cost models when a snapshot is taken, so a
   record access costs no atomic operation. *)

module Counter = struct
  type t = int Atomic.t

  let create () = Atomic.make 0
  let incr ?(by = 1) t = ignore (Atomic.fetch_and_add t by)
  let value = Atomic.get
  let reset t = Atomic.set t 0
end

module Gauge = struct
  type t = { mutable g : float; mu : Mutex.t }

  let create () = { g = 0.; mu = Mutex.create () }

  let locked t f =
    Mutex.lock t.mu;
    let v = f () in
    Mutex.unlock t.mu;
    v

  let set t v = locked t (fun () -> t.g <- v)
  let add t v = locked t (fun () -> t.g <- t.g +. v)
  let value t = locked t (fun () -> t.g)
  let reset t = locked t (fun () -> t.g <- 0.)
end

module Histogram = struct
  type t = {
    bounds : int array; (* sorted, distinct, non-empty *)
    counts : int array; (* length bounds + 1: underflow, ranges, overflow *)
    mutable total : int;
    mutable total_sum : int;
    mu : Mutex.t;
  }

  let default_bounds = [ 1; 4; 16; 64; 256; 1024; 4096; 16384; 65536 ]

  let create bounds_list =
    let bounds = Array.of_list (List.sort_uniq compare bounds_list) in
    if Array.length bounds = 0 then invalid_arg "Obs.Histogram: no bucket bounds";
    {
      bounds;
      counts = Array.make (Array.length bounds + 1) 0;
      total = 0;
      total_sum = 0;
      mu = Mutex.create ();
    }

  (* Bucket index = number of bounds <= v; 0 is the underflow bucket. *)
  let index t v =
    let lo = ref 0 and hi = ref (Array.length t.bounds) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.bounds.(mid) <= v then lo := mid + 1 else hi := mid
    done;
    !lo

  let observe t v =
    let i = index t v in
    Mutex.lock t.mu;
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    t.total_sum <- t.total_sum + v;
    Mutex.unlock t.mu

  let count t = t.total
  let sum t = t.total_sum

  let label t i =
    let n = Array.length t.bounds in
    if i = 0 then Printf.sprintf "<%d" t.bounds.(0)
    else if i = n then Printf.sprintf "%d+" t.bounds.(n - 1)
    else Printf.sprintf "%d-%d" t.bounds.(i - 1) (t.bounds.(i) - 1)

  let buckets t =
    Mutex.lock t.mu;
    let b = List.init (Array.length t.counts) (fun i -> (label t i, t.counts.(i))) in
    Mutex.unlock t.mu;
    b

  let reset t =
    Mutex.lock t.mu;
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.total <- 0;
    t.total_sum <- 0;
    Mutex.unlock t.mu
end

(* A counter owned elsewhere: [read] returns a monotone running total,
   and [reset] records the current reading as the zero point. *)
module Derived = struct
  type t = { read : unit -> int; base : int Atomic.t }

  let create read = { read; base = Atomic.make 0 }
  let value t = t.read () - Atomic.get t.base
  let reset t = Atomic.set t.base (t.read ())
end

module Registry = struct
  type metric =
    | M_counter of Counter.t
    | M_derived of Derived.t
    | M_gauge of Gauge.t
    | M_histogram of Histogram.t

  type t = { metrics : (string * labels, metric) Hashtbl.t; mu : Mutex.t }

  let create () = { metrics = Hashtbl.create 64; mu = Mutex.create () }

  let kind_name = function
    | M_counter _ -> "counter"
    | M_derived _ -> "derived counter"
    | M_gauge _ -> "gauge"
    | M_histogram _ -> "histogram"

  let find_or_add t name labels make =
    let key = (name, canon labels) in
    Mutex.lock t.mu;
    let m =
      match Hashtbl.find_opt t.metrics key with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.replace t.metrics key m;
        m
    in
    Mutex.unlock t.mu;
    m

  let mismatch name got want =
    invalid_arg
      (Printf.sprintf "Obs: metric %s is a %s, requested as %s" name (kind_name got) want)

  let counter t ?(labels = []) name =
    match find_or_add t name labels (fun () -> M_counter (Counter.create ())) with
    | M_counter c -> c
    | m -> mismatch name m "counter"

  let derived_counter t name read =
    match find_or_add t name [] (fun () -> M_derived (Derived.create read)) with
    | M_derived _ -> ()
    | m -> mismatch name m "derived counter"

  let gauge t name =
    match find_or_add t name [] (fun () -> M_gauge (Gauge.create ())) with
    | M_gauge g -> g
    | m -> mismatch name m "gauge"

  let histogram t ?(buckets = Histogram.default_bounds) name =
    match find_or_add t name [] (fun () -> M_histogram (Histogram.create buckets)) with
    | M_histogram h -> h
    | m -> mismatch name m "histogram"

  type value =
    | Counter_value of int
    | Gauge_value of float
    | Histogram_value of { count : int; sum : int; buckets : (string * int) list }

  type sample = { name : string; labels : labels; value : value }

  let snapshot t =
    Mutex.lock t.mu;
    let entries = Hashtbl.fold (fun key metric acc -> (key, metric) :: acc) t.metrics [] in
    Mutex.unlock t.mu;
    List.map
      (fun ((name, labels), metric) ->
        let value =
          match metric with
          | M_counter c -> Counter_value (Counter.value c)
          | M_derived d -> Counter_value (Derived.value d)
          | M_gauge g -> Gauge_value (Gauge.value g)
          | M_histogram h ->
            Histogram_value
              { count = Histogram.count h; sum = Histogram.sum h; buckets = Histogram.buckets h }
        in
        { name; labels; value })
      entries
    |> List.sort (fun a b ->
           match compare a.name b.name with 0 -> compare a.labels b.labels | c -> c)

  let reset t =
    Mutex.lock t.mu;
    let metrics = Hashtbl.fold (fun _ m acc -> m :: acc) t.metrics [] in
    Mutex.unlock t.mu;
    List.iter
      (fun metric ->
        match metric with
        | M_counter c -> Counter.reset c
        | M_derived d -> Derived.reset d
        | M_gauge g -> Gauge.reset g
        | M_histogram h -> Histogram.reset h)
      metrics
end

let default = Registry.create ()
let counter ?labels name = Registry.counter default ?labels name
let derived_counter name read = Registry.derived_counter default name read
let gauge name = Registry.gauge default name
let histogram ?buckets name = Registry.histogram default ?buckets name
let snapshot () = Registry.snapshot default
let reset () = Registry.reset default

let find_counter ?(labels = []) samples name =
  let labels = canon labels in
  List.find_map
    (fun (s : Registry.sample) ->
      match s.value with
      | Registry.Counter_value v when s.name = name && s.labels = labels -> Some v
      | _ -> None)
    samples

let labels_to_string labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let rows samples =
  List.concat_map
    (fun (s : Registry.sample) ->
      let ls = labels_to_string s.labels in
      match s.value with
      | Registry.Counter_value v -> [ (s.name, ls, string_of_int v) ]
      | Registry.Gauge_value v -> [ (s.name, ls, Printf.sprintf "%g" v) ]
      | Registry.Histogram_value { count; sum; buckets } ->
        List.map (fun (b, c) -> (s.name, ls ^ (if ls = "" then "le=" else ",le=") ^ b, string_of_int c)) buckets
        @ [ (s.name ^ "_count", ls, string_of_int count); (s.name ^ "_sum", ls, string_of_int sum) ])
    samples

let render samples =
  String.concat "\n"
    (List.map
       (fun (name, ls, v) ->
         if ls = "" then Printf.sprintf "%s %s" name v
         else Printf.sprintf "%s{%s} %s" name ls v)
       (rows samples))

module Trace = struct
  type span = {
    id : int;
    parent : int option;
    name : string;
    depth : int;
    start_ns : int64;
    stop_ns : int64;
    attrs : labels;
  }

  type open_span = {
    o_id : int;
    o_parent : int option;
    o_name : string;
    o_depth : int;
    o_start : int64;
    mutable o_attrs : labels;
  }

  (* The span stack models one logical request at a time, recorded by
     the domain that serves it; other domains report through counters
     only. [on] is atomic so any domain's cheap enabled-check reads a
     coherent flag, and the recording state below is guarded by [mu]
     so enabling mid-flight from another thread cannot corrupt the
     stack. *)
  let on = Atomic.make false
  let mu = Mutex.create ()
  let tick = ref 0L

  let tick_clock () =
    tick := Int64.add !tick 1L;
    !tick

  let clock_fn = ref tick_clock
  let next_id = ref 0
  let stack : open_span list ref = ref []
  let completed : span list ref = ref []

  let clear () =
    Mutex.lock mu;
    stack := [];
    completed := [];
    next_id := 0;
    tick := 0L;
    Mutex.unlock mu

  let enable ?(clock = tick_clock) () =
    clear ();
    Mutex.lock mu;
    clock_fn := clock;
    Mutex.unlock mu;
    Atomic.set on true

  let disable () = Atomic.set on false
  let enabled () = Atomic.get on

  let note key v =
    if Atomic.get on then begin
      Mutex.lock mu;
      (match !stack with
      | [] -> ()
      | top :: _ -> top.o_attrs <- top.o_attrs @ [ (key, v) ]);
      Mutex.unlock mu
    end

  let note_int key v = note key (string_of_int v)

  let with_span ?(attrs = []) name f =
    if not (Atomic.get on) then f ()
    else begin
      Mutex.lock mu;
      let id = !next_id in
      incr next_id;
      let parent = match !stack with [] -> None | p :: _ -> Some p.o_id in
      let o =
        {
          o_id = id;
          o_parent = parent;
          o_name = name;
          o_depth = List.length !stack;
          o_start = !clock_fn ();
          o_attrs = attrs;
        }
      in
      stack := o :: !stack;
      Mutex.unlock mu;
      let close () =
        Mutex.lock mu;
        (match !stack with top :: rest when top.o_id = id -> stack := rest | _ -> ());
        completed :=
          {
            id;
            parent;
            name;
            depth = o.o_depth;
            start_ns = o.o_start;
            stop_ns = !clock_fn ();
            attrs = o.o_attrs;
          }
          :: !completed;
        Mutex.unlock mu
      in
      match f () with
      | v ->
        close ();
        v
      | exception e ->
        o.o_attrs <- o.o_attrs @ [ ("error", Printexc.to_string e) ];
        close ();
        raise e
    end

  let spans () = List.sort (fun a b -> compare a.id b.id) !completed
  let find name = List.filter (fun s -> s.name = name) (spans ())

  let attr span key = List.assoc_opt key span.attrs
  let attr_int span key = Option.bind (attr span key) int_of_string_opt

  let ancestors all span =
    let by_id = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
    let rec up acc s =
      match s.parent with
      | None -> List.rev acc
      | Some p -> (
        match Hashtbl.find_opt by_id p with
        | None -> List.rev acc
        | Some ps -> up (ps :: acc) ps)
    in
    up [] span

  let duration_to_string dt =
    if Int64.compare dt 1_000_000L >= 0 then
      Printf.sprintf "%.2fms" (Int64.to_float dt /. 1e6)
    else Printf.sprintf "+%Ld" dt

  let render_tree () =
    let buf = Buffer.create 256 in
    List.iter
      (fun s ->
        Buffer.add_string buf (String.make (2 * s.depth) ' ');
        Buffer.add_string buf s.name;
        List.iter (fun (k, v) -> Buffer.add_string buf (Printf.sprintf " %s=%s" k v)) s.attrs;
        Buffer.add_string buf
          (Printf.sprintf " [%s]\n" (duration_to_string (Int64.sub s.stop_ns s.start_ns))))
      (spans ());
    Buffer.contents buf
end
