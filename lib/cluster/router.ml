module Stats = Mgq_util.Stats
module Obs = Mgq_obs.Obs

let m_served_replica = Obs.counter "router.served" ~labels:[ ("target", "replica") ]
let m_served_primary = Obs.counter "router.served" ~labels:[ ("target", "primary") ]
let m_redirects = Obs.counter "router.redirects"
let m_waits = Obs.counter "router.waits"
let m_fallbacks = Obs.counter "router.fallbacks"
let m_ejections = Obs.counter "router.ejections"
let m_restores = Obs.counter "router.restores"

type policy = Round_robin | Least_lagged | Sticky

let policy_to_string = function
  | Round_robin -> "round-robin"
  | Least_lagged -> "least-lagged"
  | Sticky -> "sticky"

type session = {
  sid : int;
  mutable high_water : int;
  mutable writes : int;
  mutable reads : int;
}

let session sid = { sid; high_water = 0; writes = 0; reads = 0 }

type choice = Serve_replica of int | Serve_primary

type t = {
  policy : policy;
  mutable cursor : int;
  served : int array;
  active : bool array;
  mutable n_active : int;
  mutable primary_served : int;
  mutable redirects : int;
  mutable waits : int;
  mutable fallbacks : int;
  mutable ejections : int;
  mutable restores : int;
  staleness : Stats.Summary.t;
}

let create policy ~n_replicas =
  {
    policy;
    cursor = 0;
    served = Array.make (max 1 n_replicas) 0;
    active = Array.make (max 1 n_replicas) true;
    n_active = n_replicas;
    primary_served = 0;
    redirects = 0;
    waits = 0;
    fallbacks = 0;
    ejections = 0;
    restores = 0;
    staleness = Stats.Summary.create ();
  }

let policy_of t = t.policy
let served t = Array.copy t.served
let primary_served t = t.primary_served
let redirects t = t.redirects
let waits t = t.waits
let fallbacks t = t.fallbacks
let ejections t = t.ejections
let restores t = t.restores
let staleness t = t.staleness
let n_active t = t.n_active

let is_active t i = i >= 0 && i < Array.length t.active && t.active.(i)

(* Removing a replica mid-rotation shrinks the active set under the
   round-robin cursor; left alone, the cursor keeps indexing positions
   in the old, larger rotation (and the same modulus would skew which
   replica comes up next). Clamp it back into the new rotation on
   every topology change. *)
let clamp_cursor t =
  if t.n_active <= 0 then t.cursor <- 0 else t.cursor <- t.cursor mod t.n_active

let eject t i =
  if i < 0 || i >= Array.length t.active then invalid_arg "Router.eject: bad index";
  if t.active.(i) then begin
    t.active.(i) <- false;
    t.n_active <- t.n_active - 1;
    t.ejections <- t.ejections + 1;
    Obs.Counter.incr m_ejections;
    clamp_cursor t
  end

let restore t i =
  if i < 0 || i >= Array.length t.active then invalid_arg "Router.restore: bad index";
  if not t.active.(i) then begin
    t.active.(i) <- true;
    t.n_active <- t.n_active + 1;
    t.restores <- t.restores + 1;
    Obs.Counter.incr m_restores;
    clamp_cursor t
  end

let route t ~session ~head_lsn ~applied ~wait =
  let serve_primary () =
    t.primary_served <- t.primary_served + 1;
    Obs.Counter.incr m_served_primary;
    session.reads <- session.reads + 1;
    Serve_primary
  in
  let snapshot = applied () in
  let n = Array.length snapshot in
  (* The rotation only covers replicas that are both present in the
     snapshot and active (not ejected by a circuit breaker). *)
  let actives = ref [] in
  for i = n - 1 downto 0 do
    if is_active t i then actives := i :: !actives
  done;
  let actives = Array.of_list !actives in
  let n_active = Array.length actives in
  if n_active = 0 then serve_primary ()
  else begin
    (* The load-balancing choice, before consistency is considered. *)
    let preferred =
      match t.policy with
      | Round_robin ->
        let i = actives.(t.cursor mod n_active) in
        t.cursor <- (t.cursor + 1) mod n_active;
        i
      | Least_lagged ->
        let best = ref actives.(0) in
        Array.iter (fun i -> if snapshot.(i) > snapshot.(!best) then best := i) actives;
        !best
      | Sticky -> actives.(session.sid mod n_active)
    in
    let fresh s i = s.(i) >= session.high_water in
    let serve s i =
      t.served.(i) <- t.served.(i) + 1;
      Obs.Counter.incr m_served_replica;
      Stats.Summary.add t.staleness (float_of_int (max 0 (head_lsn - s.(i))));
      session.reads <- session.reads + 1;
      Serve_replica i
    in
    (* Read-your-writes redirect: the least-stale active replica already
       at or past the session's high-water mark. Sticky sessions instead
       wait on their own replica, preserving locality. *)
    let redirect_target s =
      if t.policy = Sticky then None
      else begin
        let best = ref (-1) in
        Array.iter
          (fun i ->
            if s.(i) >= session.high_water && (!best < 0 || s.(i) > s.(!best)) then
              best := i)
          actives;
        if !best >= 0 then Some !best else None
      end
    in
    if fresh snapshot preferred then serve snapshot preferred
    else begin
      match redirect_target snapshot with
      | Some i ->
        t.redirects <- t.redirects + 1;
        Obs.Counter.incr m_redirects;
        serve snapshot i
      | None ->
        let rec await () =
          if wait () then begin
            t.waits <- t.waits + 1;
            Obs.Counter.incr m_waits;
            let s = applied () in
            if fresh s preferred then serve s preferred
            else begin
              match redirect_target s with
              | Some i ->
                t.redirects <- t.redirects + 1;
                Obs.Counter.incr m_redirects;
                serve s i
              | None -> await ()
            end
          end
          else begin
            (* Deadline exhausted: the primary trivially satisfies
               read-your-writes. *)
            t.fallbacks <- t.fallbacks + 1;
            Obs.Counter.incr m_fallbacks;
            serve_primary ()
          end
        in
        await ()
    end
  end
