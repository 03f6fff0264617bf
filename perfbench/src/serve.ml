(* The service workloads, driven from outside through the cheri-serve
   socket protocol: [serve-short] (an open loop of tiny jobs) and
   [serve-long] (a closed loop of one client running chaos-family
   tenants). The server is the real cheri-serve binary, 2 workers x 1
   domain, with its state directory inside the benchmark's own state
   directory. *)

module Json = Cheri_util.Json
module Service = Cheri_service.Service
module Protocol = Cheri_service.Protocol
module Chaos = Cheri_service.Chaos
module Abi = Cheri_compiler.Abi
module Machine = Cheri_isa.Machine

let now = Trace.now
let slice = 100_000  (* the service's default *)
let fuel = 200_000_000
let abis = [| "mips"; "cheriv2"; "cheriv3" |]
let poll_interval_s = 0.002
let request_timeout_s = 10.

let sleep_until t =
  let d = Float.min 0.1 (t -. now ()) in
  if d > 0. then try ignore (Unix.select [] [] [] d) with Unix.Unix_error (Unix.EINTR, _, _) -> ()

let mem_int k j = Option.bind (Json.member k j) Json.to_int
let mem_str k j = Option.bind (Json.member k j) Json.to_string
let mem_float k j = Option.bind (Json.member k j) Json.to_float
let jint n = Json.Num (string_of_int n)

(* ---- a protocol client --------------------------------------------- *)

module Client = struct
  type t = { fd : Unix.file_descr; rd : Protocol.Reader.t }

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Some { fd; rd = Protocol.Reader.create () }
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        None

  let request t j =
    match Protocol.request_timeout t.fd t.rd ~timeout_s:request_timeout_s j with
    | `Ok r -> Ok r
    | `Timeout -> Error "request timed out"
    | `Error e -> Error e
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* ---- server lifecycle ----------------------------------------------- *)

type server = {
  pid : int;
  bin : string;
  dir : string;
  socket : string;
  tree : int list;  (* the supervisor and its workers, once ready *)
  start_cpu_s : float;  (* the CPU time they spent getting ready *)
}

(* The CPU time the server and its workers have run so far. *)
let cpu srv = List.fold_left (fun acc pid -> Host.cpu_add acc (Host.proc_cpu pid)) Host.cpu_zero srv.tree

let worker_files ~dir ~fleet =
  let wdir = if fleet then Filename.concat dir "shard_0" else dir in
  List.map
    (fun i -> Filename.concat wdir (Printf.sprintf "workers/worker_%d.status.json" i))
    [ 0; 1 ]

let kill_quietly pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

(* SIGKILL those of [pids] that still run [bin] (a pid may have been
   reused once its process exited) and wait until they are gone. The
   server starts its workers from the absolute path of its executable,
   so the comparison is by resolved executable, not by command line. *)
let kill_leftovers ~bin pids =
  let exe pid = try Some (Unix.readlink (Printf.sprintf "/proc/%d/exe" pid)) with Unix.Unix_error _ -> None in
  let target = try Some (Unix.realpath bin) with Unix.Unix_error _ -> None in
  let ours = List.filter (fun pid -> target <> None && exe pid = target) pids in
  List.iter kill_quietly ours;
  let deadline = now () +. 5. in
  while List.exists Host.alive ours && now () < deadline do
    sleep_until (now () +. 0.002)
  done

(* Wait for [pid] to exit, up to [timeout_s]; [true] if it did. *)
let reap pid ~timeout_s =
  let deadline = now () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now () > deadline then false
        else begin
          sleep_until (now () +. 0.01);
          go ()
        end
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> true
  in
  go ()

(* Start cheri-serve on [dir] and wait until its socket answers and both
   workers have written their first heartbeat. The child's banner on
   stdout is dropped: our stdout carries the result. *)
let start ~bin ~dir ~fleet =
  Chaos.rm_rf dir;
  let t0 = now () in
  let args = [ bin; "--dir"; dir ] @ if fleet then [ "--shards"; "1" ] else [] in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process bin (Array.of_list args) Unix.stdin null Unix.stderr)
  in
  let socket = Filename.concat dir (if fleet then "fleet.sock" else "serve.sock") in
  let ready () =
    List.for_all Sys.file_exists (worker_files ~dir ~fleet)
    &&
    match Client.connect socket with
    | Some c ->
        Client.close c;
        true
    | None -> false
  in
  let deadline = t0 +. 30. in
  let rec wait () =
    if ready () then begin
      let tree = Host.descendants pid in
      (* schedstat: a start takes a few milliseconds, below the
         resolution of /proc/PID/stat *)
      let start_cpu_s = List.fold_left (fun acc p -> acc +. Host.task_cpu_s p) 0. tree in
      Ok { pid; bin; dir; socket; tree; start_cpu_s }
    end
    else if now () > deadline || reap pid ~timeout_s:0. then begin
      List.iter kill_quietly (Host.descendants pid);
      ignore (reap pid ~timeout_s:5. : bool);
      Chaos.rm_rf dir;
      Error "cheri-serve exited or did not come up within 30 s"
    end
    else begin
      (* a start takes a few milliseconds: poll finely so the wait
         does not round the set-up time up *)
      sleep_until (now () +. 0.0005);
      wait ()
    end
  in
  wait ()

(* Ask the server to shut down, wait for it, then make sure no process
   of its tree is left, and remove its state directory. *)
let stop srv =
  let tree = Host.descendants srv.pid in
  (match Client.connect srv.socket with
  | Some c ->
      ignore (Client.request c (Json.Obj [ ("op", Json.Str "shutdown") ]));
      Client.close c
  | None -> ());
  if not (reap srv.pid ~timeout_s:10.) then begin
    kill_quietly srv.pid;
    ignore (reap srv.pid ~timeout_s:5. : bool)
  end;
  kill_leftovers ~bin:srv.bin (List.filter (( <> ) srv.pid) tree);
  Chaos.rm_rf srv.dir

(* Peak RSS of the server and every process below it. *)
let peak_rss_mib srv = Stats.sum (List.map Host.peak_rss_mib (Host.descendants srv.pid))

(* Start the server [reps] times; keep the last one running, and return
   the CPU time of each start. Each start follows a full major
   collection, so that the garbage of the benchmark's own earlier work
   is not collected while it waits. *)
let setup ~bin ~dir ~fleet ~reps =
  let rec go i acc =
    Gc.full_major ();
    match start ~bin ~dir ~fleet with
    | Error e -> Error e
    | Ok srv ->
        let acc = srv.start_cpu_s :: acc in
        if i + 1 >= reps then Ok (srv, acc)
        else begin
          stop srv;
          go (i + 1) acc
        end
  in
  go 0 []

let server_counters srv =
  match Client.connect srv.socket with
  | None -> (Json.Null, "")
  | Some c ->
      let stats = Result.value ~default:Json.Null (Client.request c (Json.Obj [ ("op", Json.Str "stats") ])) in
      let metrics =
        match Client.request c (Json.Obj [ ("op", Json.Str "metrics") ]) with
        | Ok j -> Option.value ~default:"" (mem_str "metrics" j)
        | Error _ -> ""
      in
      Client.close c;
      (stats, metrics)

(* [serve_job_seconds] mean from the server's Prometheus text. *)
let job_seconds_mean prom =
  let find key =
    String.split_on_char '\n' prom
    |> List.find_map (fun l ->
           match String.split_on_char ' ' l with
           | [ k; v ] when k = key -> float_of_string_opt v
           | _ -> None)
  in
  match (find "serve_job_seconds_sum", find "serve_job_seconds_count") with
  | Some s, Some n when n > 0. -> s /. n
  | _ -> 0.

(* ---- jobs ------------------------------------------------------------ *)

type job = {
  index : int;
  source : string;
  abi : string;
  due : float;
  mutable sent : float;
  mutable tid : int;
  mutable running_at : float;  (* first poll that said running *)
  mutable done_at : float;
  mutable state : [ `Pending | `Waiting | `Done of Service.tresult * int | `Failed of string ];
  mutable refused : float option;  (* the retry-after hint of a refusal *)
}

let new_job ~index ~source ~abi ~due =
  { index; source; abi; due; sent = nan; tid = -1; running_at = nan; done_at = nan; state = `Pending; refused = None }

let fail j why = j.state <- `Failed why

let submit tr cl j =
  let t = now () in
  j.sent <- t;
  let req =
    Json.Obj
      [
        ("op", Json.Str "submit");
        ("source", Json.Str j.source);
        ("abi", Json.Str j.abi);
        ("fuel", jint fuel);
        ("slice", jint slice);
      ]
  in
  (match Client.request cl req with
  | Ok r -> (
      match (mem_int "tenant" r, mem_str "error" r) with
      | Some tid, _ ->
          j.tid <- tid;
          j.state <- `Waiting
      | None, Some "overloaded" ->
          j.refused <- Some (Option.value ~default:0. (mem_float "retry_after_s" r));
          fail j "refused: overloaded"
      | None, _ -> fail j ("submit: " ^ Json.encode r))
  | Error e -> fail j ("submit: " ^ e));
  Trace.add tr ~job:j.index "protocol.submit" t (now ())

let poll tr cl j =
  let t = now () in
  let r = Client.request cl (Json.Obj [ ("op", Json.Str "poll"); ("tenant", jint j.tid) ]) in
  let t1 = now () in
  Trace.add tr ~job:j.index "protocol.poll" t t1;
  match r with
  | Error e -> fail j ("poll: " ^ e)
  | Ok r -> (
      match mem_str "state" r with
      | Some "queued" -> ()
      | Some "running" -> if Float.is_nan j.running_at then j.running_at <- t1
      | Some "done" -> (
          j.done_at <- t1;
          match Option.map Service.tresult_of_json (Json.member "result" r) with
          | Some (Ok res) ->
              let restarts =
                Option.value ~default:(-1) (Option.bind (Json.member "result" r) (mem_int "restarts"))
              in
              j.state <- `Done (res, restarts);
              if not (Float.is_nan j.running_at) then
                Trace.add tr ~job:j.index "service.queue_wait" j.sent j.running_at;
              Trace.add tr ~job:j.index "job" j.due t1
          | Some (Error e) -> fail j ("result: " ^ e)
          | None -> fail j "done without a result")
      | Some s -> fail j ("state " ^ s ^ ": " ^ Json.encode r)
      | None -> fail j ("poll: " ^ Json.encode r))

(* A done job must match the serial reference of its source exactly, and
   on an undisturbed server report no restart and no scratch start. *)
let check (reference : Service.tresult) j =
  match j.state with
  | `Done (r, restarts) ->
      let same =
        r.Service.r_outcome = reference.Service.r_outcome
        && r.Service.r_output = reference.Service.r_output
        && r.Service.r_cycles = reference.Service.r_cycles
        && r.Service.r_instret = reference.Service.r_instret
        && r.Service.r_slices = reference.Service.r_slices
      in
      if not same then
        fail j
          (Printf.sprintf "job %d differs from run_serial: %s/%s cycles %d/%d instret %d/%d slices %d/%d"
             j.index r.Service.r_outcome reference.Service.r_outcome r.Service.r_cycles
             reference.Service.r_cycles r.Service.r_instret reference.Service.r_instret
             r.Service.r_slices reference.Service.r_slices)
      else if restarts <> 0 || r.Service.r_scratch then
        fail j (Printf.sprintf "job %d: restarts %d scratch %b on an undisturbed server" j.index restarts r.Service.r_scratch)
  | `Pending | `Waiting | `Failed _ -> ()

let outcome j =
  match j.state with
  | `Done _ -> Openloop.Completed { due = j.due; completed = j.done_at }
  | `Pending | `Waiting | `Failed _ -> Openloop.Failed { due = j.due }

let reference ~abi source =
  match Service.run_serial ~abi ~fuel ~slice source with
  | Ok r -> r
  | Error e -> failwith ("run_serial: " ^ e)

(* ---- the open loop (serve-short) -------------------------------------- *)

(* The chaos tenant family's program (see [Chaos.tenant_source]): fill a
   64-entry table, then step an LCG through it [iters] times and print
   the masked accumulator. The table constants vary with [salt]; the
   instruction count depends on [iters] alone. *)
let tenant_program ~salt ~iters =
  let st = Random.State.make [| salt; 0x7e11 |] in
  let stride = 1 + Random.State.int st 997 in
  let acc0 = Random.State.int st 100_000 in
  Printf.sprintf
    {|
int main(void) {
  long *tab = (long *)malloc(8 * 64);
  for (long i = 0; i < 64; i++) { tab[i] = %d + i * %d; }
  long acc = %d;
  for (long i = 0; i < %d; i++) {
    acc = acc * 1103515245 + 12345 + tab[i & 63];
  }
  print_int(acc & 1048575);
  return 0;
}
|}
    (stride * 7) stride acc0 iters

(* serve-short's pool: [pool_size] tiny programs of fixed lengths (a few
   hundred to a few thousand steps, well inside one 100k slice) whose
   constants vary with the seed. *)
let pool_size = 6
let tiny_source ~seed ~k = tenant_program ~salt:((seed * 7919) + k) ~iters:(300 + (k * 400))

(* Job [i]: jobs come in blocks of [pool_size] x 3, each block holding
   every (program, ABI) pair once in a seeded order, so sources repeat
   and every run has the same mix whatever its seed. *)
let short_job ~seed ~pool i ~due =
  let block = pool_size * 3 in
  let order = Grid.order ~seed ~pass:(i / block) block in
  let pair = List.nth order (i mod block) in
  new_job ~index:i ~source:pool.(pair / 3) ~abi:abis.(pair mod 3) ~due

type loop_result = { jobs : job list; t0 : float; t_end : float; late : float list }

let drain_s = 30.

let open_loop tr cl ~rate ~seconds ~make =
  let t0 = now () in
  let g = Openloop.create ~rate ~t0 ~seconds in
  let jobs = ref [] and waiting = ref [] and next_poll = ref t0 in
  let rec loop () =
    let t = now () in
    match Openloop.take g ~now:t with
    | Some (i, due) ->
        let j = make i ~due in
        jobs := j :: !jobs;
        Openloop.record_send g ~due ~sent:t;
        submit tr cl j;
        if j.state = `Waiting then waiting := !waiting @ [ j ];
        loop ()
    | None ->
        if Openloop.finished g && !waiting = [] then ()
        else if Openloop.finished g && t > Openloop.due g (g.Openloop.count - 1) +. drain_s then
          List.iter (fun j -> fail j "not done within the drain time") !waiting
        else begin
          if !waiting <> [] && t >= !next_poll then begin
            List.iter (poll tr cl) !waiting;
            waiting := List.filter (fun j -> j.state = `Waiting) !waiting;
            next_poll := now () +. poll_interval_s
          end;
          sleep_until (Float.min (Openloop.next_due g) (if !waiting = [] then infinity else !next_poll));
          loop ()
        end
  in
  loop ();
  { jobs = List.rev !jobs; t0; t_end = now (); late = Openloop.lateness g }

(* ---- the closed loop (serve-long) -------------------------------------- *)

(* serve-long's tenant [i]: a program of the chaos family with one of 6
   step counts from 25k to 75k (0.6-1.9M instructions) under one of the
   3 ABIs. Jobs come in blocks of 18 holding every (steps, ABI) pair
   once, in a seeded order, so any run of whole blocks holds the same
   work whatever its seed. Every tenant's source is distinct. *)
let long_block = 18

let long_job ~seed i ~due =
  let pair = List.nth (Grid.order ~seed ~pass:(i / long_block) long_block) (i mod long_block) in
  new_job ~index:i
    ~source:(tenant_program ~salt:((seed * 1_000_003) + i) ~iters:(25_000 + (10_000 * (pair / 3))))
    ~abi:abis.(pair mod 3) ~due

(* One client that submits its next job as soon as the previous one is
   done, [count] jobs from index [first]. After each job, with the
   server idle, the host's speed is sampled into [cal]. *)
let closed_loop tr cl ~cal ~count ~first ~make =
  let t0 = now () in
  let rec loop i jobs =
    if i >= first + count then List.rev jobs
    else begin
      let j = make i ~due:(now ()) in
      submit tr cl j;
      let t_fail = now () +. drain_s in
      let rec wait () =
        if j.state = `Waiting then
          if now () > t_fail then fail j "not done within the drain time"
          else begin
            sleep_until (now () +. poll_interval_s);
            poll tr cl j;
            wait ()
          end
      in
      wait ();
      (match j.state with
      | `Done _ -> Calib.sample cal ~work_s:(j.done_at -. j.sent)
      | _ ->
          (* after a refused or failed submit, pause one poll interval *)
          sleep_until (now () +. poll_interval_s));
      loop (i + 1) (j :: jobs)
    end
  in
  let jobs = loop first [] in
  { jobs; t0; t_end = now (); late = [] }

(* ---- the worker path, replayed in-process ------------------------------ *)

(* A worker's path for each job, replayed in this process so it can be
   traced: compile (cached per (ABI, source), as the worker does), build
   the machine, run 100k slices, and save a checkpoint after every slice
   that yields, with the note a worker writes (wall time fixed at 0, so
   the bytes repeat). Each save is followed by the probes of its page
   scan and digest. Returns the number of jobs that ended differently
   from their reference, the stats of every replayed machine and their
   collateral tag clears. *)
let replay tr ~dir (jobs : (job * Service.tresult) list) =
  let cache = Hashtbl.create 16 in
  let sink = Layers.tag_sink () in
  let bad = ref 0 and stats = ref [] in
  List.iter
    (fun ((j : job), (reference : Service.tresult)) ->
      let abi = Option.get (Abi.of_key j.abi) in
      let abi_name = Abi.name abi in
      let path = Filename.concat dir (Printf.sprintf "replay_%d.snap" j.index) in
      Trace.with_span tr ~job:j.index "replay.job" (fun () ->
          let linked =
            match Hashtbl.find_opt cache (j.abi, j.source) with
            | Some l -> l
            | None ->
                let l = Layers.compile tr ~job:j.index abi j.source in
                Hashtbl.add cache (j.abi, j.source) l;
                l
          in
          let m = Layers.machine tr ~job:j.index abi linked in
          Layers.count_tags sink m;
          let rec go slices prev =
            let remaining = fuel - Machine.instret m in
            match Layers.run tr ~job:j.index ~fuel:(min slice remaining) ~yield:true m with
            | Machine.Yielded ->
                let slices = slices + 1 in
                let note =
                  Service.Checkpoint.note ~tenant:j.index ~slices ~wall_s:0. ~resumed:false ~scratch:false
                    ~migrations:0 ~restarts:0 ~source:j.source ~abi:abi_name ~fuel ~slice ~deadline_s:None
                in
                ignore (Layers.save tr ~job:j.index ~note ~abi:abi_name ~path m : (int, string) result);
                go slices (Layers.probe_save_parts tr ~job:j.index ~abi:abi_name ~prev m)
            | Machine.Exit code -> (Printf.sprintf "exit:%Ld" code, slices + 1)
            | o -> (Format.asprintf "%a" Machine.pp_outcome o, slices + 1)
          in
          let outcome, slices = go 0 [] in
          if
            outcome <> reference.Service.r_outcome
            || Machine.output m <> reference.Service.r_output
            || Machine.cycles m <> reference.Service.r_cycles
            || Machine.instret m <> reference.Service.r_instret
            || slices <> reference.Service.r_slices
          then incr bad;
          stats := Machine.stats m :: !stats;
          try Sys.remove path with Sys_error _ -> ()))
    jobs;
  (!bad, List.rev !stats, Cheri_telemetry.Telemetry.Sink.collateral_tag_clears sink)
