(* What became of one attempted operation. Only [Correct] counts
   towards [ok_ratio]: a shed request (HTTP 429), any other non-200
   status, a transport failure, an exception raised by the program and
   an answer the oracle rejects are all failures. *)

type t =
  | Correct
  | Wrong of string  (** answered, but the oracle disagrees *)
  | Shed  (** HTTP 429 from admission control *)
  | Status of int  (** any other non-200 HTTP status *)
  | Transport of string  (** socket error or truncated reply *)
  | Raised of string  (** exception from an in-process call *)

let is_ok = function Correct -> true | _ -> false

let describe = function
  | Correct -> "correct"
  | Wrong msg -> "wrong answer: " ^ msg
  | Shed -> "shed (HTTP 429)"
  | Status s -> Printf.sprintf "HTTP %d" s
  | Transport msg -> "transport error: " ^ msg
  | Raised msg -> "exception: " ^ msg

(* From an HTTP exchange whose answer still has to be checked. *)
let of_status = function 200 -> None | 429 -> Some Shed | s -> Some (Status s)

type tally = { attempted : int; failed : int; first_failures : (int * t) list }

(* [first_failures] keeps the op index and outcome of the first few
   failures, for printing. *)
let tally ?(keep = 5) outcomes =
  let failed = ref 0 and first = ref [] in
  Array.iteri
    (fun i o ->
      if not (is_ok o) then begin
        incr failed;
        if !failed <= keep then first := (i, o) :: !first
      end)
    outcomes;
  { attempted = Array.length outcomes; failed = !failed; first_failures = List.rev !first }

let ok_ratio t =
  if t.attempted = 0 then 0.
  else float_of_int (t.attempted - t.failed) /. float_of_int t.attempted
