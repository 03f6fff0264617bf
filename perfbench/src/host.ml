(* The host a result was measured on, and memory read from /proc. *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      close_in ic;
      Some (Buffer.contents b)

let field_of text key =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.trim (String.sub line 0 i) = key ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

let cpu_model () =
  Option.bind (read_file "/proc/cpuinfo") (fun t -> field_of t "model name")
  |> Option.value ~default:"unknown"

(* The machine's CPUs, not the ones this process may use: a run is
   pinned to one. *)
let nproc () =
  match read_file "/proc/cpuinfo" with
  | Some t ->
      List.length
        (List.filter
           (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
           (String.split_on_char '\n' t))
  | None -> Domain.recommended_domain_count ()

let fingerprint () =
  let module Json = Cheri_util.Json in
  Json.encode
    (Json.Obj
       [
         ("cpu", Json.Str (cpu_model ()));
         ("nproc", Json.Num (string_of_int (nproc ())));
         ("ocaml", Json.Str Sys.ocaml_version);
         ("profile", Json.Str Build_info.profile);
         ("flambda", Json.Bool Build_info.flambda);
       ])

(* Peak resident set (VmHWM) of one process in MiB; 0 if it is gone. *)
let peak_rss_mib pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match Option.bind (read_file path) (fun t -> field_of t "VmHWM") with
  | Some v -> (
      match String.split_on_char ' ' v |> List.filter (( <> ) "") with
      | kb :: _ -> ( try float_of_string kb /. 1024. with Failure _ -> 0.)
      | [] -> 0.)
  | None -> 0.

let parent_of pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
      (* pid (comm) state ppid ...; comm may hold spaces *)
      match String.rindex_opt s ')' with
      | None -> None
      | Some i -> (
          match String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) with
          | _state :: ppid :: _ -> int_of_string_opt ppid
          | _ -> None))

(* [pid] exists and is not a zombie. *)
let alive pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> false
  | Some s -> (
      match String.rindex_opt s ')' with
      | Some i when i + 2 < String.length s -> s.[i + 2] <> 'Z'
      | _ -> false)

(* CPU time, in seconds. The kernel counts only the time a task ran: not
   the time it waited for a CPU, nor (in a guest with paravirtual time
   accounting) the time the hypervisor stole from the virtual CPU. So a
   CPU time measures the program's own work, not how busy the host was
   while it ran. *)

(* CPU time split into user and system (kernel) time. *)
type cpu = { user : float; sys : float }

let cpu_zero = { user = 0.; sys = 0. }
let cpu_add a b = { user = a.user +. b.user; sys = a.sys +. b.sys }
let cpu_sub a b = { user = a.user -. b.user; sys = a.sys -. b.sys }
let cpu_total c = c.user +. c.sys

(* This process, every domain included (getrusage). *)
let self_cpu () =
  let t = Unix.times () in
  { user = t.Unix.tms_utime; sys = t.Unix.tms_stime }

let self_cpu_s () = cpu_total (self_cpu ())

(* User and system CPU time of [pid], all its threads included (dead
   ones too), from /proc/PID/stat in clock ticks of 10 ms; zero once it
   is gone. *)
let proc_cpu pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> cpu_zero
  | Some s -> (
      match String.rindex_opt s ')' with
      | None -> cpu_zero
      | Some i -> (
          (* after the command come the state (field 3), ..., utime (14)
             and stime (15) *)
          let fields = String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) in
          match (List.nth_opt fields 11, List.nth_opt fields 12) with
          | Some u, Some st -> (
              match (float_of_string_opt u, float_of_string_opt st) with
              | Some u, Some st -> { user = u /. 100.; sys = st /. 100. }
              | _ -> cpu_zero)
          | _ -> cpu_zero))

(* Every live thread of [pid], from /proc/PID/task/TID/schedstat (its
   first field is nanoseconds on a CPU); 0 once the process is gone. *)
let task_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0.
  | tids ->
      Array.fold_left
        (fun acc tid ->
          match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
          | Some s -> (
              match String.split_on_char ' ' (String.trim s) with
              | ns :: _ -> ( match float_of_string_opt ns with Some v -> acc +. (v /. 1e9) | None -> acc)
              | [] -> acc)
          | None -> acc)
        0. tids

(* [pid] and every live process below it. *)
let descendants pid =
  let all =
    Sys.readdir "/proc" |> Array.to_list |> List.filter_map int_of_string_opt
    |> List.filter_map (fun p -> Option.map (fun pp -> (p, pp)) (parent_of p))
  in
  let rec grow acc frontier =
    match frontier with
    | [] -> acc
    | _ ->
        let next = List.filter_map (fun (p, pp) -> if List.mem pp frontier then Some p else None) all in
        grow (acc @ next) next
  in
  grow [ pid ] [ pid ]
