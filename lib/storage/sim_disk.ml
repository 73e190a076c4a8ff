(* The buffer pool is kept in arrays indexed by page id (pages are
   dense, 0 .. page_count - 1): a residency/dirty state byte per page
   and an exact-LRU doubly-linked list threaded through [prev]/[next]
   ints, head most-recently-used. A page access is then a few array
   reads and writes — no hashing and no allocation. *)

let absent = '\000'
let clean = '\001'
let dirty = '\002'
let nil = -1

type t = {
  cost : Cost_model.t;
  page_size : int;
  mutable pool_capacity : int;
  checkpoint_dirty_pages : int option;
  mutable dirty_count : int;
  mutable pages : Bytes.t array; (* the "disk": all pages ever allocated *)
  mutable page_count : int;
  (* Per-page pool state, grown alongside [pages]. *)
  mutable state : Bytes.t; (* [absent], [clean] or [dirty] *)
  mutable prev : int array; (* towards the head; [nil] at the head *)
  mutable next : int array; (* towards the tail; [nil] at the tail *)
  mutable head : int; (* most recently used; [nil] when the pool is empty *)
  mutable tail : int; (* eviction candidate *)
  mutable resident_count : int;
  mutable last_faulted_page : int;
  mutable faults : Fault.plan option;
  mutable crashed : bool;
}

let create ?config ?(page_size = 8192) ?(pool_pages = 4096) ?checkpoint_dirty_pages () =
  {
    cost = Cost_model.create ?config ();
    page_size;
    pool_capacity = max 1 pool_pages;
    checkpoint_dirty_pages;
    dirty_count = 0;
    pages = Array.make 64 Bytes.empty;
    page_count = 0;
    state = Bytes.make 64 absent;
    prev = Array.make 64 nil;
    next = Array.make 64 nil;
    head = nil;
    tail = nil;
    resident_count = 0;
    last_faulted_page = -100;
    faults = None;
    crashed = false;
  }

let cost t = t.cost

let clone t =
  if t.crashed then invalid_arg "Sim_disk.clone: disk has crashed";
  {
    t with
    cost = Cost_model.create ~config:(Cost_model.config t.cost) ();
    pages = Array.map Bytes.copy t.pages;
    state = Bytes.copy t.state;
    prev = Array.copy t.prev;
    next = Array.copy t.next;
    faults = None;
  }

(* ---- fault injection ---- *)

let arm_faults t plan =
  t.faults <- Some plan;
  Cost_model.set_faults t.cost (Some plan)

let disarm_faults t =
  t.faults <- None;
  Cost_model.set_faults t.cost None

let fault_plan t = t.faults
let crashed t = t.crashed

let with_faults_suspended t f =
  match t.faults with None -> f () | Some plan -> Fault.with_suspended plan f

let with_transients_suspended t f =
  match t.faults with None -> f () | Some plan -> Fault.with_transients_suspended plan f

let check_alive t =
  if t.crashed then begin
    let writes = match t.faults with Some p -> (Fault.stats p).writes | None -> 0 in
    raise (Fault.Crashed { writes })
  end
let page_size t = t.page_size
let page_count t = t.page_count
let resident_pages t = t.resident_count
let dirty_pages t = t.dirty_count
let pool_capacity t = t.pool_capacity
let disk_bytes t = t.page_count * t.page_size

(* ---- LRU list maintenance ---- *)

let detach t page =
  let p = t.prev.(page) and n = t.next.(page) in
  if p = nil then t.head <- n else t.next.(p) <- n;
  if n = nil then t.tail <- p else t.prev.(n) <- p

let push_front t page =
  t.prev.(page) <- nil;
  t.next.(page) <- t.head;
  if t.head = nil then t.tail <- page else t.prev.(t.head) <- page;
  t.head <- page

(* Repeated hits on the hottest page (a record chain within one page)
   cost no list surgery. *)
let touch t page =
  if t.head <> page then begin
    detach t page;
    push_front t page
  end

let evict_one t =
  let victim = t.tail in
  detach t victim;
  t.resident_count <- t.resident_count - 1;
  if Bytes.get t.state victim = dirty then begin
    t.dirty_count <- t.dirty_count - 1;
    Cost_model.record_page_flush t.cost
  end;
  Bytes.set t.state victim absent

let enforce_capacity t =
  while t.resident_count > t.pool_capacity do
    evict_one t
  done

(* Make a non-resident page the most recently used one. *)
let admit t page ~is_dirty =
  Bytes.set t.state page (if is_dirty then dirty else clean);
  if is_dirty then t.dirty_count <- t.dirty_count + 1;
  t.resident_count <- t.resident_count + 1;
  push_front t page;
  enforce_capacity t

(* Bring [page] into the pool, charging the appropriate event. *)
let fetch t page ~is_dirty =
  let s = Bytes.get t.state page in
  if s <> absent then begin
    Cost_model.record_page_hit t.cost;
    if is_dirty && s = clean then begin
      Bytes.set t.state page dirty;
      t.dirty_count <- t.dirty_count + 1
    end;
    touch t page
  end
  else begin
    let sequential = page = t.last_faulted_page + 1 || page = t.last_faulted_page in
    Cost_model.record_page_fault t.cost ~sequential;
    t.last_faulted_page <- page;
    admit t page ~is_dirty
  end

let flush_all t =
  check_alive t;
  (match t.faults with None -> () | Some plan -> Fault.on_flush plan);
  let flushed = ref 0 in
  let page = ref t.head in
  while !page <> nil do
    if Bytes.get t.state !page = dirty then begin
      incr flushed;
      Bytes.set t.state !page clean
    end;
    page := t.next.(!page)
  done;
  t.dirty_count <- 0;
  if !flushed > 0 then Cost_model.record_page_flush ~n:!flushed t.cost

(* Checkpoint: once the dirty-page count crosses the configured
   threshold, write everything back in one burst. *)
let maybe_checkpoint t =
  match t.checkpoint_dirty_pages with
  | Some threshold when t.dirty_count >= threshold -> flush_all t
  | Some _ | None -> ()

let grow t =
  let n = t.page_count in
  let extend a fill =
    let bigger = Array.make (2 * n) fill in
    Array.blit a 0 bigger 0 n;
    bigger
  in
  t.pages <- extend t.pages Bytes.empty;
  t.prev <- extend t.prev nil;
  t.next <- extend t.next nil;
  let state = Bytes.make (2 * n) absent in
  Bytes.blit t.state 0 state 0 n;
  t.state <- state

let allocate_page t =
  check_alive t;
  if t.page_count = Array.length t.pages then grow t;
  let id = t.page_count in
  t.pages.(id) <- Bytes.make t.page_size '\000';
  t.page_count <- t.page_count + 1;
  (* A fresh page is resident and dirty but charges no fault: it was
     never on disk. *)
  admit t id ~is_dirty:true;
  maybe_checkpoint t;
  id

let read_page t page =
  assert (page >= 0 && page < t.page_count);
  check_alive t;
  (match t.faults with None -> () | Some plan -> Fault.on_page_read plan ~page);
  fetch t page ~is_dirty:false;
  t.pages.(page)

let with_page_read t page f = f (read_page t page)

let with_page_write t page f =
  assert (page >= 0 && page < t.page_count);
  check_alive t;
  let decision =
    match t.faults with None -> Fault.Write_ok | Some plan -> Fault.on_page_write plan ~page
  in
  match decision with
  | Fault.Write_ok ->
    fetch t page ~is_dirty:true;
    let result = f t.pages.(page) in
    maybe_checkpoint t;
    result
  | Fault.Write_crash { torn } ->
    (* The machine dies on this write. The callback runs (the process
       issued the write), but only a prefix of the new bytes reaches
       the platter; then the disk refuses everything until reopened. *)
    let plan = Option.get t.faults in
    Fault.record_crash plan;
    let bytes = t.pages.(page) in
    let before = Bytes.copy bytes in
    fetch t page ~is_dirty:true;
    ignore (f bytes);
    t.crashed <- true;
    let writes = (Fault.stats plan).writes in
    if torn then begin
      let persisted = Fault.tear_offset plan ~page_size:t.page_size in
      Bytes.blit before persisted bytes persisted (t.page_size - persisted);
      raise (Fault.Torn_write { page; persisted })
    end
    else raise (Fault.Crashed { writes })

(* Drop every page from the pool without writing anything back. *)
let empty_pool t =
  let page = ref t.head in
  while !page <> nil do
    let next = t.next.(!page) in
    Bytes.set t.state !page absent;
    page := next
  done;
  t.head <- nil;
  t.tail <- nil;
  t.resident_count <- 0;
  t.dirty_count <- 0;
  t.last_faulted_page <- -100

let reopen t =
  (* Restart after a crash: the pool is cold, the fault plan is gone,
     whatever reached the platter (including any torn page) is what
     recovery gets to read. *)
  t.crashed <- false;
  disarm_faults t;
  empty_pool t

let evict_all t =
  flush_all t;
  empty_pool t

let set_pool_capacity t capacity =
  t.pool_capacity <- max 1 capacity;
  enforce_capacity t
