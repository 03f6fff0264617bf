(* One run's verdict and metrics, printed for people and as the final
   JSON line the benchmark contract asks for. *)

module Json = Cheri_util.Json

type metric = { name : string; value : float; unit_ : string }

type t = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (* printed above the result, never part of it *)
}

let m name unit_ value = { name; value; unit_ }

let value_json v = if Float.is_finite v then Json.Num (Json.number v) else Json.Num "0"

let to_json r =
  Json.encode
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (string_of_int r.attempted));
         ("failed", Json.Num (string_of_int r.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun x -> (x.name, Json.Obj [ ("value", value_json x.value); ("unit", Json.Str x.unit_) ]))
                r.metrics) );
       ])

let print_table r =
  List.iter (fun n -> Printf.printf "# %s\n" n) r.notes;
  Printf.printf "# %s: %s, %d attempted, %d failed\n" r.workload
    (if r.correct then "correct" else "INCORRECT")
    r.attempted r.failed;
  List.iter (fun x -> Printf.printf "#   %-36s %16.10g %s\n" x.name x.value x.unit_) r.metrics
