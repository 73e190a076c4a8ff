(* Seeded network fault injection: a transport wrapper over a Unix fd
   that misbehaves on purpose. The serving stack's untested failure
   surface is byte-level — a peer that sends in tiny pieces, a
   connection reset mid-request or mid-response, a first byte that
   arrives late — and none of it shows up under a well-behaved
   loopback client. Sim_net makes those behaviours reproducible: every
   injection decision is drawn from one SplitMix64 stream, so a chaos
   campaign replays byte-for-byte from its seed.

   Discipline borrowed from Fault.plan (lib/storage): draws happen on
   every operation even when the fault is suspended or its probability
   is zero, so flipping one probability on does not shift the schedule
   of every later draw. Resets are real RSTs — SO_LINGER 0 then close
   makes the kernel discard the send queue and fire a reset at the
   peer — so the server sees the same ECONNRESET it would from a
   production client vanishing mid-flight. *)

type op = Send | Recv

let op_to_string = function Send -> "send" | Recv -> "recv"

exception Injected_reset of { op : op; at : int }

let () =
  Printexc.register_printer (function
    | Injected_reset { op; at } ->
      Some (Printf.sprintf "Sim_net.Injected_reset(%s, byte %d)" (op_to_string op) at)
    | _ -> None)

type stats = {
  conns : int;
  sends : int;
  recvs : int;
  bytes_sent : int;
  bytes_received : int;
  resets_injected : int;
  first_byte_delays : int;
}

type plan = {
  rng : Mgq_util.Rng.t;
  mutex : Mutex.t;
  first_byte_delay_ns : int;
  chunk : int;  (* bytes per write; 0 = whole buffer at once *)
  reset_send_p : float;
  reset_recv_p : float;
  mutable suspend_depth : int;
  mutable conns : int;
  mutable sends : int;
  mutable recvs : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable resets_injected : int;
  mutable first_byte_delays : int;
}

let plan ?(seed = 0) ?(first_byte_delay_ns = 0) ?(chunk = 0) ?(reset_send_p = 0.)
    ?(reset_recv_p = 0.) () =
  if chunk < 0 then invalid_arg "Sim_net.plan: chunk < 0";
  if reset_send_p < 0. || reset_send_p > 1. then invalid_arg "Sim_net.plan: reset_send_p";
  if reset_recv_p < 0. || reset_recv_p > 1. then invalid_arg "Sim_net.plan: reset_recv_p";
  {
    rng = Mgq_util.Rng.create seed;
    mutex = Mutex.create ();
    first_byte_delay_ns;
    chunk;
    reset_send_p;
    reset_recv_p;
    suspend_depth = 0;
    conns = 0;
    sends = 0;
    recvs = 0;
    bytes_sent = 0;
    bytes_received = 0;
    resets_injected = 0;
    first_byte_delays = 0;
  }

let stats plan =
  Mutex.lock plan.mutex;
  let s =
    {
      conns = plan.conns;
      sends = plan.sends;
      recvs = plan.recvs;
      bytes_sent = plan.bytes_sent;
      bytes_received = plan.bytes_received;
      resets_injected = plan.resets_injected;
      first_byte_delays = plan.first_byte_delays;
    }
  in
  Mutex.unlock plan.mutex;
  s

let with_suspended plan f =
  Mutex.lock plan.mutex;
  plan.suspend_depth <- plan.suspend_depth + 1;
  Mutex.unlock plan.mutex;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock plan.mutex;
      plan.suspend_depth <- plan.suspend_depth - 1;
      Mutex.unlock plan.mutex)
    f

(* One locked draw per decision point. The draw happens even when the
   plan is suspended or p = 0 — schedule stability, as in Fault.plan:
   the nth decision always consumes the nth rng output. *)
let draw plan p =
  Mutex.lock plan.mutex;
  let hit = Mgq_util.Rng.chance plan.rng p in
  let live = plan.suspend_depth = 0 in
  Mutex.unlock plan.mutex;
  hit && live

(* Uniform cut point in [0, n]: how many bytes survive before an
   injected reset. Drawn under the lock from the same stream. *)
let draw_cut plan n =
  Mutex.lock plan.mutex;
  let cut = if n <= 0 then 0 else Mgq_util.Rng.int_in plan.rng 0 n in
  Mutex.unlock plan.mutex;
  cut

let tally plan f =
  Mutex.lock plan.mutex;
  f plan;
  Mutex.unlock plan.mutex

type conn = {
  plan : plan;
  fd : Unix.file_descr;
  mutable sent_first_byte : bool;
  mutable closed : bool;
}

let attach plan fd =
  tally plan (fun p -> p.conns <- p.conns + 1);
  { plan; fd; sent_first_byte = false; closed = false }


(* Once closed, the fd number is free for the process to reuse, so a
   second close could shut an unrelated socket. *)
let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* A real RST, not just EOF: linger(0) + close discards the kernel
   send queue and sends a reset segment. The raised exception carries
   where in the buffer the cut landed, for the injection-schedule
   tests. *)
let inject_reset c ~op ~at =
  tally c.plan (fun p -> p.resets_injected <- p.resets_injected + 1);
  (try Unix.setsockopt_optint c.fd Unix.SO_LINGER (Some 0) with Unix.Unix_error _ -> ());
  close c;
  raise (Injected_reset { op; at })

let sleep_ns ns = if ns > 0 then Thread.delay (float_of_int ns /. 1e9)

let write_all fd s off len =
  let sent = ref 0 in
  while !sent < len do
    let n = Unix.write_substring fd s (off + !sent) (len - !sent) in
    sent := !sent + n
  done

let send c s =
  let len = String.length s in
  tally c.plan (fun p -> p.sends <- p.sends + 1);
  (* Decision 1: reset this send? Drawn whether or not it fires. *)
  let reset = draw c.plan c.plan.reset_send_p in
  let cut = draw_cut c.plan len in
  if not c.sent_first_byte then begin
    c.sent_first_byte <- true;
    if c.plan.first_byte_delay_ns > 0 && c.plan.suspend_depth = 0 then begin
      tally c.plan (fun p -> p.first_byte_delays <- p.first_byte_delays + 1);
      sleep_ns c.plan.first_byte_delay_ns
    end
  end;
  let limit = if reset then cut else len in
  let chunk = if c.plan.chunk <= 0 then max 1 len else c.plan.chunk in
  let off = ref 0 in
  (try
     while !off < limit do
       let n = min chunk (limit - !off) in
       write_all c.fd s !off n;
       tally c.plan (fun p -> p.bytes_sent <- p.bytes_sent + n);
       off := !off + n
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) when reset ->
     (* The peer beat us to the teardown; fold it into the injection. *)
     ());
  if reset then inject_reset c ~op:Send ~at:limit

let recv c buf =
  tally c.plan (fun p -> p.recvs <- p.recvs + 1);
  let reset = draw c.plan c.plan.reset_recv_p in
  if reset then inject_reset c ~op:Recv ~at:0;
  let want = Bytes.length buf in
  if want = 0 then 0
  else begin
    let n = Unix.read c.fd buf 0 want in
    tally c.plan (fun p -> p.bytes_received <- p.bytes_received + n);
    n
  end
