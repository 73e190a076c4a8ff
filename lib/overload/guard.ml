(* Overload guard over a replication cluster: one circuit breaker per
   replica, wired into the router's topology. A breaker that opens
   ejects its replica from rotation (Router.eject); once its half-open
   probes succeed it restores it. Because ejected replicas are never
   routed to, probes are served deliberately by the guard — at most
   one per read, and only on a replica that satisfies the session's
   read-your-writes mark. *)

module Cluster = Mgq_cluster.Cluster
module Router = Mgq_cluster.Router
module Replica = Mgq_cluster.Replica
module Obs = Mgq_obs.Obs

let m_probes = Obs.counter "guard.probes"
let m_probe_failures = Obs.counter "guard.probe_failures"
let m_rerouted = Obs.counter "guard.rerouted"

type t = {
  cluster : Cluster.t;
  breakers : Breaker.t array;
  mutable fault : replica:int -> now:int -> bool;
  mutable probes : int;
  mutable rerouted : int;
  mutable served_while_open : int;  (* invariant: stays 0 *)
}

let create ?(breaker_config = Breaker.default_config) cluster rng =
  let router = Cluster.router cluster in
  let breakers =
    Array.mapi
      (fun i _ ->
        Breaker.create ~config:breaker_config
          ~on_open:(fun () -> Router.eject router i)
          ~on_close:(fun () -> Router.restore router i)
          (Mgq_util.Rng.split rng))
      (Cluster.replicas cluster)
  in
  {
    cluster;
    breakers;
    fault = (fun ~replica:_ ~now:_ -> false);
    probes = 0;
    rerouted = 0;
    served_while_open = 0;
  }

let breaker t i = t.breakers.(i)
let probes t = t.probes
let rerouted t = t.rerouted
let served_while_open t = t.served_while_open
let set_fault t f = t.fault <- f

(* One backend call against replica [i], reported to its breaker.
   Injected faults and real exceptions both count as failures; the
   caller re-routes rather than propagating them. The clock is read
   here, not at read entry — routing may have waited many ticks. *)
let try_replica t i f =
  let now = Cluster.now t.cluster in
  let b = t.breakers.(i) in
  if Breaker.state b ~now = Open then
    (* by construction unreachable — Open implies ejected — but the
       counter is the oracle proving it *)
    t.served_while_open <- t.served_while_open + 1;
  if t.fault ~replica:i ~now then begin
    Breaker.record_failure b ~now;
    Error ()
  end
  else
    match Cluster.serve t.cluster (Router.Serve_replica i) f with
    | v ->
      Breaker.record_success b ~now;
      Ok v
    | exception _ ->
      Breaker.record_failure b ~now;
      Error ()

(* A half-open breaker whose replica can legally serve this session
   and whose probe coin admits — the deliberate probe path back into
   rotation. *)
let probe_target t ~session ~now =
  let replicas = Cluster.replicas t.cluster in
  let rec scan i =
    if i >= Array.length t.breakers then None
    else
      let b = t.breakers.(i) in
      if
        Breaker.state b ~now = Breaker.Half_open
        && Replica.applied_lsn replicas.(i) >= session.Router.high_water
        && Breaker.allow b ~now
      then Some i
      else scan (i + 1)
  in
  scan 0

let read t ?budget ~session f =
  let now = Cluster.now t.cluster in
  (* Advance every breaker's timed transitions on the cluster clock. *)
  Array.iter (fun b -> ignore (Breaker.state b ~now)) t.breakers;
  let probed =
    match probe_target t ~session ~now with
    | None -> None
    | Some i -> (
      t.probes <- t.probes + 1;
      Obs.Counter.incr m_probes;
      match try_replica t i f with
      | Ok v -> Some v
      | Error () ->
        Obs.Counter.incr m_probe_failures;
        None)
  in
  match probed with
  | Some v -> v
  | None ->
    (* Normal path: route, then interpose the breaker between the
       routing decision and the serve. A failure re-routes (the
       breaker may have just ejected the replica, shrinking the
       rotation) until only the primary remains. *)
    let attempts = 1 + Array.length t.breakers in
    let rec go n =
      match Cluster.choose t.cluster ?budget ~session () with
      | Router.Serve_primary as choice -> Cluster.serve t.cluster choice f
      | Router.Serve_replica i -> (
        match try_replica t i f with
        | Ok v -> v
        | Error () ->
          t.rerouted <- t.rerouted + 1;
          Obs.Counter.incr m_rerouted;
          if n > 0 then go (n - 1)
          else Cluster.serve t.cluster Router.Serve_primary f)
    in
    go attempts
