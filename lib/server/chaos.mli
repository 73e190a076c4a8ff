(** End-to-end chaos campaign over the live serving stack.

    Composes every fault layer the repo owns — a disk-crash-armed
    primary with failover, client-side {!Sim_net} resets and delays,
    raw-socket slowloris attackers — under open-loop load from the
    resilient {!Loadgen} client, in three phases (baseline, fault,
    recovery), then judges the run with five oracles: no acked write
    lost, no leaked worker, every request typed, goodput recovered to
    ≥90% of baseline, and every slow client evicted with a 408. *)

type config = {
  seed : int;
  users : int;
  replicas : int;
  workers : int;
  connections : int;
  rate_per_s : float;
  slo_ns : int;
  baseline_ms : int;
  fault_ms : int;
  recovery_ms : int;
  attackers : int;
  attacker_gap_ms : int;
  reset_send_p : float;
  reset_recv_p : float;
  first_byte_delay_ms : int;
  header_deadline_s : float;
  body_deadline_s : float;
  writes : int;
  failover : bool;
}

val default_config : config
(** Full campaign: ~4 s of load, 3 attackers, failover armed. *)

val smoke_config : config
(** CI-sized: ~1.7 s of load, same fault mix. *)

type report = {
  verdicts : Mgq_util.Verdict.t list;  (** the five oracles, in order *)
  lines : string list;
      (** Deterministic given the config: echoed parameters, the
          seed-derived fault schedule, and PASS/FAIL verdicts. Two
          runs with one seed produce identical [lines]. *)
  measurements : string list;
      (** Wall-clock-shaped diagnostics (goodputs, percentiles,
          injection counts) — excluded from the determinism
          contract. *)
}

val run : config -> report

val slowloris :
  host:string ->
  port:int ->
  gap_s:float ->
  give_up_s:float ->
  [ `Evicted_408 | `Other_response | `Closed | `Reset | `Still_connected | `Connect_failed ]
(** One hostile client: trickle an endless header one byte per
    [gap_s], polling between bytes for the server's verdict. Exposed
    for the slow-client defence tests. *)
