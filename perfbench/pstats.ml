(* Order statistics over latency samples.

   Percentiles are nearest-rank on the sorted samples. A tail
   percentile is only reported where at least [beyond] samples lie
   above it; with too few samples the reported rank falls back to the
   highest one that still leaves [beyond] samples above, so a p99 is
   never read off the last handful of samples. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [p] (0 < p <= 100) among [n]. *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n))))

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pstats.nearest_rank: no samples";
  sorted.(rank ~n p - 1)

let median sorted = nearest_rank sorted 50.

type tail = {
  value : float;
  rank : int;  (** 1-based rank the value was read at *)
  above : int;  (** samples strictly beyond that rank *)
  percentile : float;  (** the percentile [rank] corresponds to *)
}

let tail ?(beyond = 10) sorted p =
  let n = Array.length sorted in
  if n <= beyond then None
  else begin
    let r = min (rank ~n p) (n - beyond) in
    Some
      {
        value = sorted.(r - 1);
        rank = r;
        above = n - r;
        percentile = 100. *. float_of_int r /. float_of_int n;
      }
  end

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. samples /. float_of_int n

let median_of_list xs = median (sorted (Array.of_list xs))
