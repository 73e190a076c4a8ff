module Obs = Mgq_obs.Obs

type config = {
  record_access_ns : int;
  page_hit_ns : int;
  page_fault_ns : int;
  page_flush_ns : int;
  seek_penalty_ns : int;
}

let default_config =
  {
    record_access_ns = 120;
    page_hit_ns = 40;
    page_fault_ns = 90_000;
    page_flush_ns = 110_000;
    seek_penalty_ns = 350_000;
  }

type counters = {
  db_hits : int;
  page_hits : int;
  page_faults : int;
  page_flushes : int;
  simulated_ns : int;
}

let zero_counters =
  { db_hits = 0; page_hits = 0; page_faults = 0; page_flushes = 0; simulated_ns = 0 }

let add_counters a b =
  {
    db_hits = a.db_hits + b.db_hits;
    page_hits = a.page_hits + b.page_hits;
    page_faults = a.page_faults + b.page_faults;
    page_flushes = a.page_flushes + b.page_flushes;
    simulated_ns = a.simulated_ns + b.simulated_ns;
  }

let sub_counters a b =
  {
    db_hits = a.db_hits - b.db_hits;
    page_hits = a.page_hits - b.page_hits;
    page_faults = a.page_faults - b.page_faults;
    page_flushes = a.page_flushes - b.page_flushes;
    simulated_ns = a.simulated_ns - b.simulated_ns;
  }

let simulated_ms c = float_of_int c.simulated_ns /. 1e6

(* The accumulators are mutable scalars, not a [counters] value: the
   counting paths run once per db hit / page access, and a functional
   record update there allocates six words per hit — visible on every
   query's profile (the [bench alloc] experiment counts them). *)
type t = {
  cfg : config;
  mutable acc_db_hits : int;
  mutable acc_page_hits : int;
  mutable acc_page_faults : int;
  mutable acc_page_flushes : int;
  mutable acc_simulated_ns : int;
  mutable budget : Mgq_util.Budget.t option;
  mutable faults : Fault.plan option;
}

(* ---- Process-wide store totals (DESIGN.md §11) ----

   The store.* metrics are not bumped per access. Each is read when a
   snapshot is taken: the sum of every live model's accumulator plus
   [retired], the counts of models since reset or collected. A model's
   counts move into [retired] whole, its accumulators zeroed in the
   same step, and a reader whose sum overlapped a move sums again, so
   a total never goes backwards. The registry holds models weakly: it
   never keeps a dropped database alive. *)

let stat_names = [| "store.db_hits"; "store.page_hits"; "store.page_faults"; "store.page_flushes" |]

let stat t = function
  | 0 -> t.acc_db_hits
  | 1 -> t.acc_page_hits
  | 2 -> t.acc_page_faults
  | _ -> t.acc_page_flushes

let retired = Array.init (Array.length stat_names) (fun _ -> Atomic.make 0)

(* [moving] counts moves in progress, [moves] completed ones. *)
let moving = Atomic.make 0
let moves = Atomic.make 0

let retire t =
  Atomic.incr moving;
  for i = 0 to Array.length retired - 1 do
    ignore (Atomic.fetch_and_add retired.(i) (stat t i))
  done;
  t.acc_db_hits <- 0;
  t.acc_page_hits <- 0;
  t.acc_page_faults <- 0;
  t.acc_page_flushes <- 0;
  Atomic.incr moves;
  Atomic.decr moving

(* Registration and summing lock [live_mu]; [retire] never does, so a
   finaliser run at an allocation inside the locked sum cannot
   deadlock. *)
let live : t Weak.t ref = ref (Weak.create 16)
let live_mu = Mutex.create ()

let register t =
  Mutex.protect live_mu (fun () ->
      let w = !live in
      let n = Weak.length w in
      let rec free i = if i = n || not (Weak.check w i) then i else free (i + 1) in
      let i = free 0 in
      if i = n then begin
        let bigger = Weak.create (2 * n) in
        Weak.blit w 0 bigger 0 n;
        live := bigger
      end;
      Weak.set !live i (Some t));
  Gc.finalise retire t

(* A move that overlapped the sum either is still in progress at the
   end ([moving > 0]) or has completed since the start ([moves]
   changed); both mean the sum may hold a count twice or not at all. *)
let rec total i =
  let before = Atomic.get moves in
  let sum =
    Mutex.protect live_mu (fun () ->
        let w = !live and sum = ref 0 in
        for slot = 0 to Weak.length w - 1 do
          match Weak.get w slot with Some t -> sum := !sum + stat t i | None -> ()
        done;
        !sum)
  in
  let sum = sum + Atomic.get retired.(i) in
  if Atomic.get moving = 0 && Atomic.get moves = before then sum else total i

let () = Array.iteri (fun i name -> Obs.derived_counter name (fun () -> total i)) stat_names

let create ?(config = default_config) () =
  let t =
    {
      cfg = config;
      acc_db_hits = 0;
      acc_page_hits = 0;
      acc_page_faults = 0;
      acc_page_flushes = 0;
      acc_simulated_ns = 0;
      budget = None;
      faults = None;
    }
  in
  register t;
  t

let config t = t.cfg

let budget t = t.budget

let with_budget t budget f =
  match budget with
  | None -> f ()
  | Some _ ->
    let previous = t.budget in
    t.budget <- budget;
    Fun.protect ~finally:(fun () -> t.budget <- previous) f

let set_faults t faults = t.faults <- faults
let faults t = t.faults

(* Budget charging happens after counting: the work was done, then the
   meter trips. Fault injection happens before counting: a failed
   access never completed. *)
let charge_budget t ~hits ~ns =
  match t.budget with
  | None -> ()
  | Some b -> Mgq_util.Budget.charge ~hits ~ns b

let inject_db_hit t =
  match t.faults with None -> () | Some plan -> Fault.on_db_hit plan

let record_db_hit ?(n = 1) t =
  inject_db_hit t;
  t.acc_db_hits <- t.acc_db_hits + n;
  t.acc_simulated_ns <- t.acc_simulated_ns + (n * t.cfg.record_access_ns);
  charge_budget t ~hits:n ~ns:(n * t.cfg.record_access_ns)

let record_page_hit t =
  t.acc_page_hits <- t.acc_page_hits + 1;
  t.acc_simulated_ns <- t.acc_simulated_ns + t.cfg.page_hit_ns;
  charge_budget t ~hits:0 ~ns:t.cfg.page_hit_ns

let record_page_fault t ~sequential =
  let cost =
    t.cfg.page_fault_ns + if sequential then 0 else t.cfg.seek_penalty_ns
  in
  t.acc_page_faults <- t.acc_page_faults + 1;
  t.acc_simulated_ns <- t.acc_simulated_ns + cost;
  charge_budget t ~hits:0 ~ns:cost

let record_page_flush ?(n = 1) t =
  t.acc_page_flushes <- t.acc_page_flushes + n;
  t.acc_simulated_ns <- t.acc_simulated_ns + (n * t.cfg.page_flush_ns);
  charge_budget t ~hits:0 ~ns:(n * t.cfg.page_flush_ns)

let advance_ns t ns = t.acc_simulated_ns <- t.acc_simulated_ns + ns

let snapshot t =
  {
    db_hits = t.acc_db_hits;
    page_hits = t.acc_page_hits;
    page_faults = t.acc_page_faults;
    page_flushes = t.acc_page_flushes;
    simulated_ns = t.acc_simulated_ns;
  }

let reset t =
  retire t;
  t.acc_simulated_ns <- 0
