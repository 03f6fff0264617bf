(* Order statistics for the benchmark's samples. *)

let sorted l = Array.of_list (List.sort compare l)

(* Linear interpolation between order statistics; [nan] when empty. *)
let quantile l q =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = min (n - 2) (int_of_float pos) in
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median l = quantile l 0.5
let sum l = List.fold_left ( +. ) 0. l
let mean l = match l with [] -> nan | _ -> sum l /. float_of_int (List.length l)

(* The tail percentile is the highest rung of this ladder that leaves at
   least ten samples beyond it. The rungs are coarse so that run-to-run
   changes in the sample count rarely move a run to another rung: p75
   covers 40 to 199 samples, p95 200 to 499. *)
let tail_ladder = [ 99.9; 99.0; 98.0; 95.0; 75.0; 50.0 ]

let tail_percentile n =
  match List.find_opt (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.) tail_ladder with
  | Some p -> p
  | None -> 50.0

(* [(percentile, value)] of the tail of a sample. *)
let tail l =
  let p = tail_percentile (List.length l) in
  (p, quantile l (p /. 100.))
