(* Order statistics over latency samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; nan for no samples. *)
let quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0. xs
         /. float_of_int (List.length xs))

(* Samples strictly above the [p] quantile: a tail percentile is reported
   only when at least ten samples lie beyond it. *)
let beyond xs p = int_of_float (Float.round ((1. -. p) *. float_of_int (List.length xs)))
