(** Seeded network fault injection over Unix fds.

    The transport-layer sibling of [Mgq_storage.Sim_disk]: wrap a
    connected socket in a {!conn} and every send/recv goes through a
    fault plan that can delay the first byte, split writes into tiny
    chunks, and inject real connection resets
    (SO_LINGER 0 + close, so the peer sees ECONNRESET, not EOF) —
    all driven by one PRNG seed.

    Schedule stability follows [Fault.plan]'s discipline: every
    decision point draws from the stream even when suspended or when
    its probability is zero, so enabling one fault does not reshuffle
    the schedule of the others. *)

type op = Send | Recv

exception Injected_reset of { op : op; at : int }
(** Raised on the side that injected the reset. [at] is the number of
    bytes of the buffer that were written before the cut (always 0 for
    [Recv]). The underlying fd is already closed. *)

type stats = {
  conns : int;
  sends : int;
  recvs : int;
  bytes_sent : int;
  bytes_received : int;
  resets_injected : int;
  first_byte_delays : int;
}

type plan

val plan :
  ?seed:int ->
  ?first_byte_delay_ns:int ->
  ?chunk:int ->
  ?reset_send_p:float ->
  ?reset_recv_p:float ->
  unit ->
  plan
(** All faults default off: no delay, whole-buffer writes, zero reset
    probability. The plan is thread-safe; one plan may drive many
    connections (they share the seeded stream). *)

type conn

val attach : plan -> Unix.file_descr -> conn
(** Wrap a connected socket. The fd stays owned by the caller except
    after an injected reset, which closes it; {!close} closes it
    exactly once either way. *)

val close : conn -> unit
(** Close the fd unless an injected reset (or an earlier [close])
    already did. *)

val send : conn -> string -> unit
(** Write the whole string through the fault plan: first-byte delay
    (once per connection), writes split into [chunk]-byte pieces, and
    possibly an injected reset after a seeded prefix.
    @raise Injected_reset when the plan cuts the connection. *)

val recv : conn -> bytes -> int
(** Read at most [Bytes.length buf] bytes into [buf]. Returns 0 at
    EOF, like [Unix.read].
    @raise Injected_reset when the plan cuts the connection. *)

val with_suspended : plan -> (unit -> 'a) -> 'a
(** Run [f] with fault firing suspended (draws still happen, so the
    schedule stays stable). Nests. *)

val stats : plan -> stats
(** Snapshot of injection counters across all connections. *)
