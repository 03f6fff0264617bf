(* The open-loop arrival schedule and the accounting shared by the
   service workloads.

   Job [i] is due at [t0 + i / rate], whatever happened to earlier jobs.
   A job's latency runs from when it was due, not from when it was sent,
   so a stall in the generator or the server is charged to every job it
   delays; how late each send was is kept as the generator's lateness. *)

type t = {
  t0 : float;
  period : float;
  count : int;
  mutable next : int;
  mutable late : float list;
}

let create ~rate ~t0 ~seconds =
  { t0; period = 1. /. rate; count = max 1 (int_of_float (Float.round (rate *. seconds))); next = 0; late = [] }

let due t i = t.t0 +. (float_of_int i *. t.period)
let finished t = t.next >= t.count
let next_due t = if finished t then infinity else due t t.next

(* The next job whose due time has come, as [(index, due)]. *)
let take t ~now =
  if (not (finished t)) && now >= due t t.next then begin
    let i = t.next in
    t.next <- i + 1;
    Some (i, due t i)
  end
  else None

let record_send t ~due ~sent = t.late <- Float.max 0. (sent -. due) :: t.late
let lateness t = t.late

(* How one attempted job ended. A job that failed or was refused never
   completes: it counts as failed, and its latency is the time from its
   due time to the end of the run, so it misses any latency limit the
   run could have met. *)
type outcome = Completed of { due : float; completed : float } | Failed of { due : float }

let attempted outcomes = List.length outcomes
let failed outcomes = List.length (List.filter (function Failed _ -> true | Completed _ -> false) outcomes)

let latencies ~horizon outcomes =
  List.map
    (function
      | Completed { due; completed } -> completed -. due | Failed { due } -> Float.max 0. (horizon -. due))
    outcomes
