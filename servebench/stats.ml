(* Exact order statistics over raw samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile [p] (0 < p <= 100) of a sorted array. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile (sorted xs) 50.0

(* The tail: the highest of these percentiles with at least ten samples
   beyond it. *)
let ladder = [ 99.9; 99.0; 90.0; 50.0 ]

let tail_percentile n =
  Option.value ~default:50.0
    (List.find_opt (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0) ladder)

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* A metric as printed: value, unit, and how it was read. *)
type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }
