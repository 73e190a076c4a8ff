(** One oracle's judgement of a campaign run.

    Every campaign (the consistency audit, the chaos campaign, the
    cluster drills) returns its oracles as a list of verdicts; the CLI
    and the bench read that list instead of re-deriving pass/fail from
    the campaign's counters. *)

type t = { name : string; passed : bool; detail : string }

val passed : t list -> bool
(** Every verdict passed (an empty list passes). *)
