type io_op = Page_read | Page_write | Page_flush | Db_hit

exception Io_error of { op : io_op; at : int }
exception Torn_write of { page : int; persisted : int }
exception Crashed of { writes : int }

type plan = {
  rng : Mgq_util.Rng.t;
  read_fail_p : float;
  write_fail_p : float;
  flush_fail_p : float;
  hit_fail_p : float;
  fail_hits : int list;
  crash_at_write : int;
  torn_crash : bool;
  page_aligned_tear : bool;
  mutable reads : int;
  mutable writes : int;
  mutable flushes : int;
  mutable hits : int;
  mutable injected : int;
  mutable crashes : int;
  mutable suspend_depth : int;
  mutable transient_suspend_depth : int;
}

let plan ?(seed = 0) ?(read_fail_p = 0.0) ?(write_fail_p = 0.0) ?(flush_fail_p = 0.0)
    ?(hit_fail_p = 0.0) ?(fail_hits = []) ?(crash_at_write = 0) ?(torn_crash = true)
    ?(page_aligned_tear = false) () =
  {
    rng = Mgq_util.Rng.create seed;
    read_fail_p;
    write_fail_p;
    flush_fail_p;
    hit_fail_p;
    fail_hits;
    crash_at_write;
    torn_crash;
    page_aligned_tear;
    reads = 0;
    writes = 0;
    flushes = 0;
    hits = 0;
    injected = 0;
    crashes = 0;
    suspend_depth = 0;
    transient_suspend_depth = 0;
  }

let suspended t = t.suspend_depth > 0
let transients_suspended t = t.suspend_depth > 0 || t.transient_suspend_depth > 0

let with_suspended t f =
  t.suspend_depth <- t.suspend_depth + 1;
  Fun.protect ~finally:(fun () -> t.suspend_depth <- t.suspend_depth - 1) f

let with_transients_suspended t f =
  t.transient_suspend_depth <- t.transient_suspend_depth + 1;
  Fun.protect
    ~finally:(fun () -> t.transient_suspend_depth <- t.transient_suspend_depth - 1)
    f

(* Draw from the rng even when suspended or the probability is zero,
   so arming the same plan against the same workload injects at the
   same points regardless of which probes are disabled in between. *)
let transient t p op at =
  let hit = Mgq_util.Rng.chance t.rng p in
  if hit && not (transients_suspended t) && p > 0.0 then begin
    t.injected <- t.injected + 1;
    raise (Io_error { op; at })
  end

let on_page_read t ~page =
  t.reads <- t.reads + 1;
  transient t t.read_fail_p Page_read page

let record_crash t = t.crashes <- t.crashes + 1

type write_decision = Write_ok | Write_crash of { torn : bool }

let on_page_write t ~page =
  t.writes <- t.writes + 1;
  if t.crash_at_write > 0 && t.writes = t.crash_at_write && not (suspended t) then
    Write_crash { torn = t.torn_crash }
  else begin
    transient t t.write_fail_p Page_write page;
    Write_ok
  end

let tear_offset t ~page_size =
  let r = Mgq_util.Rng.int t.rng page_size in
  if t.page_aligned_tear then if 2 * r < page_size then 0 else page_size else r

let on_flush t =
  t.flushes <- t.flushes + 1;
  transient t t.flush_fail_p Page_flush t.flushes

let on_db_hit t =
  t.hits <- t.hits + 1;
  let exact = List.mem t.hits t.fail_hits in
  if exact && not (transients_suspended t) then begin
    t.injected <- t.injected + 1;
    raise (Io_error { op = Db_hit; at = t.hits })
  end;
  transient t t.hit_fail_p Db_hit t.hits

type stats = {
  reads : int;
  writes : int;
  flushes : int;
  hits : int;
  injected : int;
  crashes : int;
}

let stats (t : plan) =
  {
    reads = t.reads;
    writes = t.writes;
    flushes = t.flushes;
    hits = t.hits;
    injected = t.injected;
    crashes = t.crashes;
  }
