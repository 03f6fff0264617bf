(* Spans recorded by the benchmark around its calls into each layer.

   A span has a name, a start and an end, the span that caused it (its
   parent, 0 for a root) and the job it belongs to. Spans opened with
   {!with_span} nest per domain; spans of asynchronous events seen from
   a client (a submit round trip, queued -> running) are added with
   {!add}. Everything stays in memory until {!write_jsonl}.

   A disabled recorder records nothing and adds one branch per call, so
   the untraced run executes the same code. *)

type span = {
  id : int;
  parent : int;
  name : string;
  job : int;
  t0 : float;
  t1 : float;
  probe : bool;
      (* a probe repeats work the workload did inside another call, to
         time it on its own; it is not part of the workload's path *)
}

type t = {
  on : bool;
  prefix : string;  (* prepended to the names of spans added with [add] *)
  mu : Mutex.t;
  mutable spans : span list;
  samples : (string, float list) Hashtbl.t;
}

let now = Unix.gettimeofday

(* span ids are unique across every recorder of the process, so traces
   can be written out together *)
let next_id = Atomic.make 1

let create ?(prefix = "") on = { on; prefix; mu = Mutex.create (); spans = []; samples = Hashtbl.create 16 }
let enabled t = t.on
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let push t s = Mutex.protect t.mu (fun () -> t.spans <- s :: t.spans)

let with_span ?(probe = false) t ~job name f =
  if not t.on then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Domain.DLS.get current in
    Domain.DLS.set current id;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      Domain.DLS.set current parent;
      push t { id; parent; name; job; t0; t1; probe }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let add t ~job name t0 t1 =
  if t.on then
    push t { id = Atomic.fetch_and_add next_id 1; parent = 0; name = t.prefix ^ name; job; t0; t1; probe = false }

(* A named sample (bytes per save, pages per save, ...). *)
let sample t name v =
  if t.on then
    Mutex.protect t.mu (fun () ->
        let l = Option.value ~default:[] (Hashtbl.find_opt t.samples name) in
        Hashtbl.replace t.samples name (v :: l))

let samples t name = Option.value ~default:[] (Hashtbl.find_opt t.samples name)
let spans t = List.rev t.spans

(* Self time: a span's duration minus the part of it its children
   cover. Children on one domain never overlap, so their durations add
   up; the clip guards against clock steps. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let c = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (c +. (s.t1 -. s.t0)))
    t.spans;
  List.map
    (fun s ->
      let d = s.t1 -. s.t0 in
      let c = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      (s, Float.max 0. (d -. Float.min d c)))
    (spans t)

type layer = { calls : int; self_s : float; durations : float list }

let layers t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = Option.value ~default:{ calls = 0; self_s = 0.; durations = [] } (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name
        { calls = l.calls + 1; self_s = l.self_s +. self; durations = (s.t1 -. s.t0) :: l.durations })
    (self_times t);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let durations t name = List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) t.spans

let median_s t name = match durations t name with [] -> 0. | l -> Stats.median l

let write_jsonl t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"job\":%d,\"start\":%.6f,\"end\":%.6f,\"probe\":%b}\n"
        s.id s.parent s.name s.job s.t0 s.t1 s.probe)
    (spans t);
  close_out oc

let probe_s t =
  List.fold_left (fun acc s -> if s.probe then acc +. (s.t1 -. s.t0) else acc) 0. t.spans
