(* The four workloads, each turned into one run's report.

   Every run measures with tracing off and reports the end-to-end
   metrics. A traced run ([trace]) is separate: it splits its time into
   an untraced phase and a traced phase of the same workload (their
   difference is [bench.trace_overhead]) and reports the per-layer
   metrics. *)

module Abi = Cheri_compiler.Abi
module Machine = Cheri_isa.Machine
module Service = Cheri_service.Service

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  state_dir : string;
  serve_bin : string;
  trace_out : string option;
}

let names = [ "grid"; "serve-short"; "serve-long"; "resume" ]
let setup_reps = 21
let now = Trace.now

(* Set-up done [setup_reps] times, each after a full major collection
   so that earlier garbage is not charged to it, and each followed by a
   speed sample; the median CPU time in reference seconds (see [Calib])
   and the last value. *)
let repeated_setup f =
  let rec go i acc =
    Gc.full_major ();
    let c0 = Host.self_cpu () in
    let v = f () in
    let c = Host.cpu_sub (Host.self_cpu ()) c0 in
    let cal = Calib.create () in
    Calib.sample cal ~work_s:(Host.cpu_total c);
    let acc = Calib.at_ref cal c :: acc in
    if i + 1 >= setup_reps then (Stats.median acc, v) else go (i + 1) acc
  in
  go 0 []

let ratio a b = if b > 0. then a /. b else 0.

(* The end-to-end metrics. The time ones are CPU time of the processes
   that do the workload's work (this one for grid and resume, the server
   and its workers for the service workloads), in reference seconds:
   [ref_s] is the workload's CPU time scaled by the host's speed as
   [Calib] sampled it alongside. Set-up is the median over its
   repetitions; throughput is the instructions the finished jobs retired
   per reference second; a job's cost is its share of those seconds. *)
let e2e ~setup_s ~insns ~jobs ~ref_s ~rss =
  [
    Report.m "setup_s" "s" setup_s;
    Report.m "sim_minsn_per_s" "Minsn/s" (ratio insns ref_s /. 1e6);
    Report.m "cpu_ms_per_job" "ms" (1000. *. ratio ref_s jobs);
    Report.m "peak_rss_mb" "MiB" rss;
  ]

(* What a run's CPU time was before scaling, and the host's speed. *)
let cpu_note (c : Host.cpu) cal =
  Printf.sprintf
    "%.3f CPU s (user %.3f, system %.3f) at a host speed of %.3f (the calibration loop's speed / its reference speed): %.3f reference s"
    (Host.cpu_total c) c.Host.user c.Host.sys (Calib.speed cal) (Calib.at_ref cal c)

(* The same run by the wall clock: throughput, the median latency and
   the tail (the highest percentile of [Stats.tail_ladder] with ten
   samples beyond it). These depend on how much of the host the run got,
   so they are reported, as notes and as the traced run's [wall.*]
   metrics, but not held to a bound. *)
let wall_figures ~insns ~jobs ~wall_s ~latencies =
  let p, tail = Stats.tail latencies in
  [
    ("wall.sim_minsn_per_s", ratio insns wall_s /. 1e6);
    ("wall.jobs_per_s", ratio jobs wall_s);
    ("wall.latency_p50_s", Stats.median latencies);
    ("wall.latency_tail_s", tail);
    ("wall.latency_tail_pct", p);
  ]

let wall_note ~what ~latencies figures =
  let get k = List.assoc k figures in
  Printf.sprintf "wall clock, not bounded: %.4f Minsn/s, %.4f jobs/s; %d %s: p50 %.6f s, p%g %.6f s"
    (get "wall.sim_minsn_per_s") (get "wall.jobs_per_s") (List.length latencies) what
    (get "wall.latency_p50_s") (get "wall.latency_tail_pct") (get "wall.latency_tail_s")

let set_wall pl figures = List.iter (fun (k, v) -> Perlayer.set pl k v) figures

let write_trace cfg traces =
  match cfg.trace_out with
  | None -> []
  | Some path ->
      let merged = Trace.create true in
      List.iter (fun t -> List.iter (Trace.push merged) (Trace.spans t)) traces;
      Trace.write_jsonl merged path;
      [ "trace written to " ^ path ]

let finish ~workload ~attempted ~errors ~metrics ~notes =
  let failed = List.length errors in
  {
    Report.workload;
    correct = errors = [];
    attempted = max 1 attempted;
    failed;
    metrics;
    notes = notes @ List.filteri (fun i _ -> i < 5) (List.map (fun e -> "error: " ^ e) errors);
  }

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* ---- grid ---------------------------------------------------------------- *)

let grid_errors cells (ph : Grid.phase) =
  ph.Grid.errors
  @ List.filter_map
      (fun (r : Grid.run) ->
        Option.map
          (fun e ->
            let c = cells.(r.Grid.cell) in
            Printf.sprintf "%s/%s: %s" c.Grid.workload (Abi.name c.Grid.abi) e)
          r.Grid.error)
      ph.Grid.runs

let grid_insns (ph : Grid.phase) =
  float_of_int (List.fold_left (fun a (r : Grid.run) -> a + r.Grid.stats.Machine.st_instret) 0 ph.Grid.runs)

let task_s (r : Grid.run) = r.Grid.t_end -. r.Grid.t_start

(* Idle gaps between consecutive tasks on one domain: the pool's
   dispatch wait, since every task is queued from the start. *)
let queue_gaps runs =
  let by_domain = Hashtbl.create 4 in
  List.iter
    (fun (r : Grid.run) ->
      Hashtbl.replace by_domain r.Grid.domain (r :: Option.value ~default:[] (Hashtbl.find_opt by_domain r.Grid.domain)))
    runs;
  Hashtbl.fold
    (fun _ rs acc ->
      let rs = List.sort (fun (a : Grid.run) b -> compare a.Grid.t_start b.Grid.t_start) rs in
      let rec gaps = function
        | (a : Grid.run) :: (b :: _ as rest) -> Float.max 0. (b.Grid.t_start -. a.Grid.t_end) :: gaps rest
        | _ -> []
      in
      gaps rs @ acc)
    by_domain []

let grid cfg =
  let cells = Grid.cells () in
  let off = Trace.create false in
  let setup_s, linked = repeated_setup (fun () -> Grid.compile off cells) in
  let wall (phases : Grid.phase list) =
    let runs = List.concat_map (fun (ph : Grid.phase) -> ph.Grid.runs) phases in
    let latencies = List.map task_s runs in
    ( latencies,
      wall_figures
        ~insns:(Stats.sum (List.map grid_insns phases))
        ~jobs:(float_of_int (List.length runs))
        ~wall_s:(Stats.sum (List.map (fun (ph : Grid.phase) -> ph.Grid.wall_s -. ph.Grid.aside_s) phases))
        ~latencies )
  in
  (* One untimed pass first. The first run of a cell in a process is up to
     twice as slow as later ones, by a varying amount: the memory its
     machine takes is new to the process, and on a VM the host may have to
     back every page of it on first touch. Later machines reuse that
     memory, as they do in a process that has been up a while. Its cells
     are checked and counted like the others. *)
  let warm = Grid.run_phase off ~seed:cfg.seed ~passes:1 ~count_tags:false cells linked in
  if not cfg.trace then begin
    let passes = Grid.passes ~seconds:cfg.seconds in
    let ph = Grid.run_phase off ~seed:cfg.seed ~passes ~count_tags:false cells linked in
    let latencies, figures = wall [ ph ] in
    let cpu = Grid.cpu ph in
    finish ~workload:"grid"
      ~attempted:(List.length warm.Grid.runs + List.length ph.Grid.runs)
      ~errors:(grid_errors cells warm @ grid_errors cells ph)
      ~metrics:
        (e2e ~setup_s ~insns:(grid_insns ph)
           ~jobs:(float_of_int (List.length ph.Grid.runs))
           ~ref_s:(Calib.at_ref ph.Grid.cal cpu) ~rss:(Host.peak_rss_mib 0))
      ~notes:
        [
          Printf.sprintf "%d passes over %d cells on %d domain in %.2f s" passes (Array.length cells) Grid.jobs
            ph.Grid.wall_s;
          cpu_note cpu ph.Grid.cal;
          wall_note ~what:"cell times" ~latencies figures;
        ]
  end
  else begin
    let passes = Grid.passes ~seconds:(cfg.seconds /. 4.) in
    let ctr = Trace.create true in
    ignore (Grid.compile ctr cells : _ array);
    let tr = Trace.create true in
    let phase tr ~count_tags = Grid.run_phase tr ~seed:cfg.seed ~passes ~count_tags cells linked in
    let a1 = phase off ~count_tags:false in
    let b1 = phase tr ~count_tags:true in
    let b2 = phase tr ~count_tags:false in
    let a2 = phase off ~count_tags:false in
    let runs phases = List.concat_map (fun (ph : Grid.phase) -> ph.Grid.runs) phases in
    let sum f phases = Stats.sum (List.map f phases) in
    let wall_s = sum (fun (ph : Grid.phase) -> ph.Grid.wall_s -. ph.Grid.aside_s) in
    let ref_s = sum (fun (ph : Grid.phase) -> Calib.at_ref ph.Grid.cal (Grid.cpu ph)) in
    let b_busy = float_of_int Grid.jobs *. wall_s [ b1; b2 ] in
    let pl = Perlayer.create () in
    Perlayer.of_trace pl tr ~roots:[ "exec.task" ] ~busy_s:b_busy;
    Perlayer.set pl "minic.frontend_s" (Trace.median_s ctr "minic.frontend");
    Perlayer.set pl "codegen.compile_s" (Trace.median_s ctr "codegen.compile");
    Perlayer.set pl "codegen.insns" (Stats.sum (Trace.samples ctr "codegen.insns"));
    let first = List.filter (fun (r : Grid.run) -> r.Grid.pass = 0) b1.Grid.runs in
    Perlayer.set_sim pl
      (List.map (fun (r : Grid.run) -> r.Grid.stats) first)
      ~collateral:(List.fold_left (fun acc (r : Grid.run) -> acc + r.Grid.collateral) 0 first);
    let durs = List.map task_s (runs [ b1; b2 ]) in
    Perlayer.set pl "exec.task_s" (Stats.median durs);
    Perlayer.set pl "exec.queue_wait_s" (Stats.median (queue_gaps b1.Grid.runs @ queue_gaps b2.Grid.runs));
    Perlayer.set pl "exec.busy_ratio" (ratio (Stats.sum durs) b_busy);
    let rate phases = ratio (sum grid_insns phases) (ref_s phases) in
    Perlayer.set pl "bench.trace_overhead" (ratio (rate [ a1; a2 ]) (rate [ b1; b2 ]) -. 1.);
    set_wall pl (snd (wall [ a1; a2 ]));
    Perlayer.set pl "host.speed" (Calib.speed a1.Grid.cal);
    let errors = List.concat_map (grid_errors cells) [ warm; a1; b1; b2; a2 ] in
    let attempted = List.length (runs [ warm; a1; b1; b2; a2 ]) in
    Perlayer.set pl "bench.failed_ratio" (ratio (float_of_int (List.length errors)) (float_of_int attempted));
    finish ~workload:"grid" ~attempted ~errors ~metrics:(Perlayer.to_metrics pl)
      ~notes:
        ((Printf.sprintf
            "untraced, traced, traced, untraced phases of %d passes each: untraced %.2f s (%.2f reference s), traced %.2f s (%.2f reference s)"
            passes (wall_s [ a1; a2 ]) (ref_s [ a1; a2 ]) (wall_s [ b1; b2 ]) (ref_s [ b1; b2 ])
         :: Perlayer.budget tr ~roots:[ "exec.task" ])
        @ write_trace cfg [ ctr; tr ])
  end

(* ---- resume -------------------------------------------------------------- *)

let resume_errors programs (ph : Resume.phase) =
  List.filter_map
    (fun (i, (r : Resume.result)) ->
      Option.map (fun e -> Printf.sprintf "%s: %s" programs.(i).Grid.workload e) r.Resume.error)
    ph.Resume.results

let resume_insns (ph : Resume.phase) =
  float_of_int (List.fold_left (fun a (_, (r : Resume.result)) -> a + r.Resume.instret) 0 ph.Resume.results)

let resume cfg =
  let programs = Resume.programs () in
  let off = Trace.create false in
  let dir = Filename.concat cfg.state_dir "resume" in
  mkdir_p dir;
  let setup_s, linked = repeated_setup (fun () -> Grid.compile off programs) in
  let run tr ~seconds ~probe =
    Resume.run_phase tr ~seed:cfg.seed ~passes:(Resume.passes ~seconds) ~dir ~probe programs linked
  in
  let wall (ph : Resume.phase) =
    let latencies = List.concat_map (fun (_, (r : Resume.result)) -> r.Resume.slice_s) ph.Resume.results in
    ( latencies,
      wall_figures ~insns:(resume_insns ph)
        ~jobs:(float_of_int (List.length ph.Resume.results))
        ~wall_s:ph.Resume.wall_s ~latencies )
  in
  if not cfg.trace then begin
    let ph = run off ~seconds:cfg.seconds ~probe:false in
    let latencies, figures = wall ph in
    let cpu = Resume.cpu ph in
    finish ~workload:"resume" ~attempted:(List.length ph.Resume.results) ~errors:(resume_errors programs ph)
      ~metrics:
        (e2e ~setup_s ~insns:(resume_insns ph)
           ~jobs:(float_of_int (List.length ph.Resume.results))
           ~ref_s:(Calib.at_ref ph.Resume.cal cpu) ~rss:(Host.peak_rss_mib 0))
      ~notes:
        [
          Printf.sprintf "%d program runs in %.2f s" (List.length ph.Resume.results) ph.Resume.wall_s;
          cpu_note cpu ph.Resume.cal;
          wall_note ~what:"slice cycles (run, save, load, create, restore)" ~latencies figures;
        ]
  end
  else begin
    let half = cfg.seconds /. 2. in
    let a = run off ~seconds:half ~probe:false in
    let tr = Trace.create true in
    let b = run tr ~seconds:half ~probe:true in
    let pl = Perlayer.create () in
    Perlayer.of_trace pl tr ~roots:[ "resume.slice" ] ~busy_s:b.Resume.wall_s;
    let first = List.filteri (fun i _ -> i < Array.length programs) b.Resume.results in
    Perlayer.set_sim pl
      (List.filter_map (fun (_, (r : Resume.result)) -> r.Resume.stats) first)
      ~collateral:(List.fold_left (fun a (_, (r : Resume.result)) -> a + r.Resume.collateral) 0 first);
    (* the probes repeat work on the same thread: their time is taken
       out of the traced phase's CPU time *)
    let rate_a = ratio (resume_insns a) (Calib.at_ref a.Resume.cal (Resume.cpu a)) in
    let rate_b =
      ratio (resume_insns b)
        (Calib.at_ref b.Resume.cal (Host.cpu_sub (Resume.cpu b) { Host.user = Trace.probe_s tr; sys = 0. }))
    in
    Perlayer.set pl "bench.trace_overhead" (ratio rate_a rate_b -. 1.);
    set_wall pl (snd (wall a));
    Perlayer.set pl "host.speed" (Calib.speed a.Resume.cal);
    let errors = resume_errors programs a @ resume_errors programs b in
    let attempted = List.length a.Resume.results + List.length b.Resume.results in
    Perlayer.set pl "bench.failed_ratio" (ratio (float_of_int (List.length errors)) (float_of_int attempted));
    finish ~workload:"resume" ~attempted ~errors ~metrics:(Perlayer.to_metrics pl)
      ~notes:
        ((Printf.sprintf "untraced phase %d program runs in %.2f s, traced phase %d in %.2f s"
            (List.length a.Resume.results) a.Resume.wall_s (List.length b.Resume.results) b.Resume.wall_s
         :: Perlayer.budget tr ~roots:[ "resume.slice" ])
        @ write_trace cfg [ tr ])
  end

(* ---- the service workloads -------------------------------------------- *)

let live : Serve.server list ref = ref []

let stop_all () =
  List.iter Serve.stop !live;
  live := []

let start_server cfg ~name ~fleet ~reps =
  match Serve.setup ~bin:cfg.serve_bin ~dir:(Filename.concat cfg.state_dir name) ~fleet ~reps with
  | Ok (srv, times) ->
      live := srv :: !live;
      (srv, Stats.median times)
  | Error e -> failwith e

let stop_server srv =
  Serve.stop srv;
  live := List.filter (fun s -> s != srv) !live

let connect srv =
  match Serve.Client.connect srv.Serve.socket with Some c -> c | None -> failwith "cannot connect to cheri-serve"

let done_jobs jobs =
  List.filter (fun (j : Serve.job) -> match j.Serve.state with `Done _ -> true | _ -> false) jobs

let job_errors jobs =
  List.filter_map (fun (j : Serve.job) -> match j.Serve.state with `Failed e -> Some e | _ -> None) jobs

let job_instret (j : Serve.job) =
  match j.Serve.state with `Done (r, _) -> r.Service.r_instret | _ -> 0

(* The wall-clock figures of service loops. Throughput counts the jobs
   done over the time from each loop's start to its last completion. *)
let serve_wall loops =
  let n, insns, span =
    List.fold_left
      (fun (n, insns, span) (res : Serve.loop_result) ->
        let dones = done_jobs res.Serve.jobs in
        let last = List.fold_left (fun a (j : Serve.job) -> Float.max a j.Serve.done_at) res.Serve.t0 dones in
        (n + List.length dones, insns + List.fold_left (fun a j -> a + job_instret j) 0 dones, span +. (last -. res.Serve.t0)))
      (0, 0, 0.) loops
  in
  let latencies =
    List.concat_map
      (fun (res : Serve.loop_result) ->
        Openloop.latencies ~horizon:res.Serve.t_end (List.map Serve.outcome res.Serve.jobs))
      loops
  in
  (latencies, wall_figures ~insns:(float_of_int insns) ~jobs:(float_of_int n) ~wall_s:span ~latencies)

(* Run one loop and measure the CPU time the server spent meanwhile. *)
let measured srv f =
  let c0 = Serve.cpu srv in
  let res = f () in
  (res, Host.cpu_sub (Serve.cpu srv) c0)

let serve_e2e ~setup_s ~rss ~ref_s jobs =
  let dones = done_jobs jobs in
  e2e ~setup_s
    ~insns:(float_of_int (List.fold_left (fun a j -> a + job_instret j) 0 dones))
    ~jobs:(float_of_int (List.length dones)) ~ref_s ~rss

let serve_counters pl srv (jobs : Serve.job list) =
  let stats, prom = Serve.server_counters srv in
  let num k = Option.value ~default:0 (Serve.mem_int k stats) in
  Perlayer.set pl "admission.rejected" (float_of_int (num "rejected"));
  Perlayer.set pl "service.worker_deaths" (float_of_int (num "worker_deaths"));
  Perlayer.set pl "service.job_s" (Serve.job_seconds_mean prom);
  let hints = List.filter_map (fun (j : Serve.job) -> j.Serve.refused) jobs in
  Perlayer.set pl "admission.retry_after_s" (if hints = [] then 0. else Stats.mean hints);
  Perlayer.set pl "service.restarts"
    (float_of_int
       (List.fold_left
          (fun a (j : Serve.job) -> match j.Serve.state with `Done (_, r) -> a + max 0 r | _ -> a)
          0 jobs))

let client_layers pl ctr =
  Perlayer.set pl "protocol.submit_rtt_s" (Trace.median_s ctr "protocol.submit");
  Perlayer.set pl "protocol.poll_rtt_s" (Trace.median_s ctr "protocol.poll");
  Perlayer.set pl "service.queue_wait_s" (Trace.median_s ctr "service.queue_wait")

(* The mean slice count of the first [k] jobs by index: a deterministic
   function of the seed. *)
let slices_per_job jobs k =
  let firsts = List.filter (fun (j : Serve.job) -> j.Serve.index < k) jobs in
  Stats.mean
    (List.filter_map
       (fun (j : Serve.job) -> match j.Serve.state with `Done (r, _) -> Some (float_of_int r.Service.r_slices) | _ -> None)
       firsts)

(* Untraced and traced phases in the order untraced, traced, traced,
   untraced, so that a drift over the run (a server still warming up)
   weighs on both alike. [k] numbers each kind's phases. *)
let abba untraced traced =
  let a1 = untraced 0 in
  let b1 = traced 0 in
  let b2 = traced 1 in
  let a2 = untraced 1 in
  ([ a1; a2 ], [ b1; b2 ])

let loop_jobs loops = List.concat_map (fun (res : Serve.loop_result) -> res.Serve.jobs) loops

let first_jobs jobs k = List.filter (fun (j : Serve.job) -> j.Serve.index < k) jobs

let replay_into pl cfg jobs_with_refs =
  let rtr = Trace.create true in
  let dir = Filename.concat cfg.state_dir "replay" in
  mkdir_p dir;
  let t0 = now () in
  let bad, stats, collateral = Serve.replay rtr ~dir jobs_with_refs in
  let wall = now () -. t0 in
  Perlayer.of_trace pl rtr ~roots:[ "replay.job" ] ~busy_s:wall;
  Perlayer.set_sim pl stats ~collateral;
  (rtr, if bad > 0 then [ Printf.sprintf "%d replayed jobs differ from run_serial" bad ] else [])

(* Both service workloads first run this long untimed against the
   server they measure, so compile caches and worker heaps are warm, as
   on a server that has been up for a while. Warm-up jobs are checked
   and counted as attempts like any other. *)
let warmup_s = 4.

let short_rate = 18.

(* serve-short measures its open loop in bursts of about this length.
   After each, once its jobs are done and the server is idle, the host's
   speed is sampled; job indices of burst [k] start at [k * short_base]
   (a whole number of the job mix's blocks). *)
let short_burst_s = 2.
let short_base = 18_000
let short_replay_jobs = 24

let serve_short cfg =
  let pool = Array.init Serve.pool_size (fun k -> Serve.tiny_source ~seed:cfg.seed ~k) in
  let refs = Hashtbl.create 32 in
  Array.iter
    (fun src -> Array.iter (fun abi -> Hashtbl.replace refs (abi, src) (Serve.reference ~abi src)) Serve.abis)
    pool;
  let reference (j : Serve.job) = Hashtbl.find refs (j.Serve.abi, j.Serve.source) in
  let undersized =
    Hashtbl.fold
      (fun _ (r : Service.tresult) acc -> if r.Service.r_slices <> 1 then r :: acc else acc)
      refs []
  in
  if undersized <> [] then failwith "serve-short: a pool program does not finish inside one slice";
  let make base i ~due = Serve.short_job ~seed:cfg.seed ~pool (base + i) ~due in
  let srv, setup_s = start_server cfg ~name:"serve" ~fleet:false ~reps:setup_reps in
  let cl = connect srv in
  let loop tr ~seconds ~base =
    let res = Serve.open_loop tr cl ~rate:short_rate ~seconds ~make:(make base) in
    List.iter (fun j -> Serve.check (reference j) j) res.Serve.jobs;
    res
  in
  let late_note late =
    let p, l = Stats.tail late in
    Printf.sprintf "generator lateness: median %.6f s, p%g %.6f s" (Stats.median late) p l
  in
  let warm = (loop (Trace.create false) ~seconds:warmup_s ~base:2_000_000).Serve.jobs in
  if not cfg.trace then begin
    let n = max 1 (int_of_float (Float.round (cfg.seconds /. short_burst_s))) in
    let cal = Calib.create () in
    let rec bursts k acc cpu =
      if k = n then (List.rev acc, cpu)
      else begin
        let res, c =
          measured srv (fun () ->
              loop (Trace.create false) ~seconds:(cfg.seconds /. float_of_int n) ~base:(k * short_base))
        in
        Calib.sample cal ~work_s:(Host.cpu_total c);
        bursts (k + 1) (res :: acc) (Host.cpu_add cpu c)
      end
    in
    let loops, cpu = bursts 0 [] Host.cpu_zero in
    let rss = Serve.peak_rss_mib srv in
    Serve.Client.close cl;
    stop_server srv;
    let jobs = List.concat_map (fun (res : Serve.loop_result) -> res.Serve.jobs) loops in
    let latencies, figures = serve_wall loops in
    finish ~workload:"serve-short" ~attempted:(List.length warm + List.length jobs)
      ~errors:(job_errors warm @ job_errors jobs)
      ~metrics:(serve_e2e ~setup_s ~rss ~ref_s:(Calib.at_ref cal cpu) jobs)
      ~notes:
        [
          Printf.sprintf "open loop at %g jobs/s, %d bursts of %g s: %d jobs" short_rate n
            (cfg.seconds /. float_of_int n) (List.length jobs);
          cpu_note cpu cal;
          wall_note ~what:"job latencies, from due time" ~latencies figures;
          late_note (List.concat_map (fun (res : Serve.loop_result) -> res.Serve.late) loops);
        ]
  end
  else begin
    let ctr = Trace.create true in
    let a, b =
      abba (fun k -> loop (Trace.create false) ~seconds:(cfg.seconds /. 4.) ~base:(1_000_000 + (k * 100_000)))
        (fun k -> loop ctr ~seconds:(cfg.seconds /. 4.) ~base:(k * 100_000))
    in
    let pl = Perlayer.create () in
    let b_jobs = loop_jobs b in
    serve_counters pl srv b_jobs;
    Serve.Client.close cl;
    stop_server srv;
    client_layers pl ctr;
    let p50 loops = Stats.median (fst (serve_wall loops)) in
    Perlayer.set pl "bench.trace_overhead" (ratio (p50 b) (p50 a) -. 1.);
    set_wall pl (snd (serve_wall a));
    Perlayer.set pl "host.speed" (Calib.speed_now ());
    let late = List.concat_map (fun (res : Serve.loop_result) -> res.Serve.late) b in
    Perlayer.set pl "bench.generator_late_s" (snd (Stats.tail late));
    Perlayer.set pl "service.slices_per_job" (slices_per_job b_jobs short_replay_jobs);
    (* the router hop: the same open loop through a 1-shard fleet *)
    let fleet, _ = start_server cfg ~name:"fleet" ~fleet:true ~reps:1 in
    let fcl = connect fleet in
    let rtr = Trace.create ~prefix:"router." true in
    let c = Serve.open_loop rtr fcl ~rate:short_rate ~seconds:(cfg.seconds /. 3.) ~make:(make 3_000_000) in
    List.iter (fun j -> Serve.check (reference j) j) c.Serve.jobs;
    Serve.Client.close fcl;
    stop_server fleet;
    Perlayer.set pl "router.submit_rtt_s" (Trace.median_s rtr "router.protocol.submit");
    Perlayer.set pl "router.latency_p50_s" (p50 [ c ]);
    Perlayer.set pl "router.hop_s" (p50 [ c ] -. p50 b);
    let firsts = first_jobs (done_jobs b_jobs) short_replay_jobs in
    let ptr, replay_errors = replay_into pl cfg (List.map (fun j -> (j, reference j)) firsts) in
    let jobs = warm @ loop_jobs a @ b_jobs @ c.Serve.jobs in
    let errors = job_errors jobs @ replay_errors in
    let attempted = List.length jobs in
    Perlayer.set pl "bench.failed_ratio" (ratio (float_of_int (List.length errors)) (float_of_int attempted));
    finish ~workload:"serve-short" ~attempted ~errors ~metrics:(Perlayer.to_metrics pl)
      ~notes:((late_note late :: Perlayer.budget ptr ~roots:[ "replay.job" ]) @ write_trace cfg [ ctr; rtr; ptr ])
  end

let long_replay_jobs = 3

(* serve-long runs whole blocks of jobs (see [Serve.long_job]): as many
   as take about [seconds] at this many seconds a block, the time one
   took on the reference host. *)
let long_block_s = 4.5
let long_blocks ~seconds = max 1 (int_of_float (Float.round (seconds /. long_block_s)))

let serve_long cfg =
  let srv, setup_s = start_server cfg ~name:"serve" ~fleet:false ~reps:setup_reps in
  let cl = connect srv in
  (* [block] numbers the first block, so job indices of different loops
     never meet *)
  let loop ?(cal = Calib.create ()) tr ~seconds ~block =
    Serve.closed_loop tr cl ~cal
      ~count:(Serve.long_block * long_blocks ~seconds)
      ~first:(Serve.long_block * block) ~make:(Serve.long_job ~seed:cfg.seed)
  in
  (* every source is distinct: one serial reference per done job, on
     both domains once the server is idle *)
  let check_all jobs =
    let dones = done_jobs jobs in
    let refs =
      Cheri_exec.Exec.Pool.map ~jobs:2
        (fun (j : Serve.job) -> Serve.reference ~abi:j.Serve.abi j.Serve.source)
        dones
    in
    List.filter_map
      (fun (j, (c : _ Cheri_exec.Exec.Pool.cell)) ->
        match c.Cheri_exec.Exec.Pool.result with
        | Ok r ->
            Serve.check r j;
            Some (j, r)
        | Error e ->
            Serve.fail j ("run_serial: " ^ e.Cheri_exec.Exec.Pool.exn);
            None)
      (List.combine dones refs)
  in
  let warm = (loop (Trace.create false) ~seconds:warmup_s ~block:100_000).Serve.jobs in
  if not cfg.trace then begin
    let cal = Calib.create () in
    let res, cpu = measured srv (fun () -> loop ~cal (Trace.create false) ~seconds:cfg.seconds ~block:0) in
    let rss = Serve.peak_rss_mib srv in
    Serve.Client.close cl;
    stop_server srv;
    ignore (check_all (warm @ res.Serve.jobs) : _ list);
    let latencies, figures = serve_wall [ res ] in
    finish ~workload:"serve-long"
      ~attempted:(List.length warm + List.length res.Serve.jobs)
      ~errors:(job_errors warm @ job_errors res.Serve.jobs)
      ~metrics:(serve_e2e ~setup_s ~rss ~ref_s:(Calib.at_ref cal cpu) res.Serve.jobs)
      ~notes:
        [
          Printf.sprintf "closed loop of one client, %d blocks: %d jobs in %.2f s" (long_blocks ~seconds:cfg.seconds)
            (List.length res.Serve.jobs) (res.Serve.t_end -. res.Serve.t0);
          cpu_note cpu cal;
          wall_note ~what:"job latencies" ~latencies figures;
        ]
  end
  else begin
    let ctr = Trace.create true in
    let cal = Calib.create () in
    let a, b =
      abba
        (fun k -> loop ~cal (Trace.create false) ~seconds:(cfg.seconds /. 4.) ~block:(50_000 + (k * 1000)))
        (fun k -> loop ctr ~seconds:(cfg.seconds /. 4.) ~block:(k * 1000))
    in
    let pl = Perlayer.create () in
    let b_jobs = loop_jobs b in
    serve_counters pl srv b_jobs;
    Serve.Client.close cl;
    stop_server srv;
    client_layers pl ctr;
    ignore (check_all (warm @ loop_jobs a) : _ list);
    let checked = check_all b_jobs in
    let jps loops = List.assoc "wall.jobs_per_s" (snd (serve_wall loops)) in
    Perlayer.set pl "bench.trace_overhead" (ratio (jps a) (jps b) -. 1.);
    set_wall pl (snd (serve_wall a));
    Perlayer.set pl "host.speed" (Calib.speed cal);
    Perlayer.set pl "service.slices_per_job" (slices_per_job b_jobs long_replay_jobs);
    let firsts = List.filter (fun ((j : Serve.job), _) -> j.Serve.index < long_replay_jobs) checked in
    let ptr, replay_errors = replay_into pl cfg firsts in
    let jobs = warm @ loop_jobs a @ b_jobs in
    let errors = job_errors jobs @ replay_errors in
    let attempted = List.length jobs in
    Perlayer.set pl "bench.failed_ratio" (ratio (float_of_int (List.length errors)) (float_of_int attempted));
    finish ~workload:"serve-long" ~attempted ~errors ~metrics:(Perlayer.to_metrics pl)
      ~notes:
        ((Printf.sprintf "untraced phases %d jobs, traced phases %d jobs" (List.length (loop_jobs a))
            (List.length b_jobs)
         :: Perlayer.budget ptr ~roots:[ "replay.job" ])
        @ write_trace cfg [ ctr; ptr ])
  end

let run cfg = function
  | "grid" -> grid cfg
  | "resume" -> resume cfg
  | "serve-short" -> Fun.protect ~finally:stop_all (fun () -> serve_short cfg)
  | "serve-long" -> Fun.protect ~finally:stop_all (fun () -> serve_long cfg)
  | w -> invalid_arg ("unknown workload " ^ w)
