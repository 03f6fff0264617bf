(* Tests of the benchmark itself.

   Usage: test_perfbench.exe BENCHMARK.json BENCH_PR6.json CHERI_SERVE *)

open Perfbench
module Json = Cheri_util.Json
module Abi = Cheri_compiler.Abi
module Machine = Cheri_isa.Machine
module Service = Cheri_service.Service

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let read path = In_channel.with_open_bin path In_channel.input_all

let json path =
  match Json.parse (read path) with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

let str k j = Option.get (Option.bind (Json.member k j) Json.to_string)
let list k j = Option.get (Option.bind (Json.member k j) Json.to_list)

(* ---- the open-loop generator and the failure accounting ---- *)

let test_openloop () =
  let g = Openloop.create ~rate:10. ~t0:100. ~seconds:1. in
  check "open loop: rate x seconds jobs" (g.Openloop.count = 10);
  check "open loop: nothing due before t0" (Openloop.take g ~now:99.99 = None);
  (* the generator stalls until 100.55: the six jobs due by then are
     sent at once, each late by its own amount *)
  let sent = ref [] in
  let rec drain () =
    match Openloop.take g ~now:100.55 with
    | Some (i, due) ->
        Openloop.record_send g ~due ~sent:100.55;
        sent := (i, due) :: !sent;
        drain ()
    | None -> ()
  in
  drain ();
  check "open loop: jobs due during a stall are all released" (List.length !sent = 6);
  check "open loop: due times follow the schedule, not the send time"
    (List.for_all (fun (i, due) -> Float.abs (due -. (100. +. (0.1 *. float_of_int i))) < 1e-9) !sent);
  let late = List.sort compare (Openloop.lateness g) in
  check "open loop: lateness is send minus due"
    (Float.abs (List.hd late -. 0.05) < 1e-9 && Float.abs (List.nth late 5 -. 0.55) < 1e-9);
  let outcomes =
    List.map (fun (_, due) -> Openloop.Completed { due; completed = 100.6 }) !sent
  in
  let lat = Openloop.latencies ~horizon:101. outcomes in
  check "open loop: latency runs from the due time"
    (Float.abs (List.fold_left Float.max 0. lat -. 0.6) < 1e-9)

let test_accounting () =
  let outcomes =
    [
      Openloop.Completed { due = 0.; completed = 0.1 };
      Openloop.Failed { due = 0.2 };
      Openloop.Completed { due = 0.4; completed = 0.45 };
      Openloop.Failed { due = 0.6 };
    ]
  in
  check "accounting: every job is an attempt" (Openloop.attempted outcomes = 4);
  check "accounting: failures and refusals count as failed" (Openloop.failed outcomes = 2);
  let lat = Openloop.latencies ~horizon:2. outcomes in
  check "accounting: a failed job misses any limit the run could meet"
    (List.nth lat 1 = 1.8 && List.nth lat 3 = 1.4
    && List.for_all (fun l -> List.nth lat 1 >= l) [ List.nth lat 0; List.nth lat 2 ]);
  (* a refused submit and a result that differs from the reference both
     end as failures of the job *)
  let j = Serve.new_job ~index:0 ~source:"" ~abi:"cheriv3" ~due:0. in
  j.Serve.refused <- Some 0.05;
  Serve.fail j "refused: overloaded";
  check "accounting: a refused job is failed" (Serve.outcome j = Openloop.Failed { due = 0. });
  let r =
    {
      Service.r_outcome = "exit:0";
      r_output = "1";
      r_cycles = 10;
      r_instret = 5;
      r_slices = 1;
      r_resumed = false;
      r_scratch = false;
      r_migrations = 0;
    }
  in
  let k = Serve.new_job ~index:1 ~source:"" ~abi:"cheriv3" ~due:0. in
  k.Serve.state <- `Done ({ r with Service.r_cycles = 11 }, 0);
  Serve.check r k;
  check "accounting: a result unlike run_serial fails the job"
    (match k.Serve.state with `Failed _ -> true | _ -> false);
  let l = Serve.new_job ~index:2 ~source:"" ~abi:"cheriv3" ~due:0. in
  l.Serve.state <- `Done (r, 1);
  Serve.check r l;
  check "accounting: a restart on an undisturbed server fails the job"
    (match l.Serve.state with `Failed _ -> true | _ -> false)

let test_tail () =
  check "tail: 420 samples use p95" (Stats.tail_percentile 420 = 95.);
  check "tail: 99 and 100 samples both use p75"
    (Stats.tail_percentile 99 = 75. && Stats.tail_percentile 100 = 75.);
  let p, v = Stats.tail (List.init 630 (fun i -> float_of_int i)) in
  check "tail: 630 samples use p98 over the whole sample" (p = 98. && Float.abs (v -. (0.98 *. 629.)) < 1e-9);
  check "tail: 63 samples use p75" (Stats.tail_percentile 63 = 75.);
  check "tail: 1000 samples use p99" (Stats.tail_percentile 1000 = 99.);
  check "tail: the rung leaves at least ten samples beyond it"
    (List.for_all
       (fun n -> float_of_int n *. (1. -. (Stats.tail_percentile n /. 100.)) >= 10.)
       [ 20; 40; 99; 100; 199; 200; 499; 500; 999; 1000; 20000 ])

(* ---- CPU time ---- *)

let test_cpu_time () =
  let c0 = Host.self_cpu_s () in
  Unix.sleepf 0.2;
  let c1 = Host.self_cpu_s () in
  check "cpu time: a sleep costs no CPU time" (c1 -. c0 < 0.05);
  let x = ref 0 in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 0.2 do
    incr x
  done;
  check "cpu time: a busy loop costs CPU time" (Host.self_cpu_s () -. c1 > 0.05);
  let me = Unix.getpid () in
  check "cpu time: schedstat of a live process" (Host.task_cpu_s me > 0.);
  check "cpu time: a process that does not exist reads 0" (Host.task_cpu_s (-1) = 0.);
  check "cpu time: /proc/PID/stat of a live process" (Host.cpu_total (Host.proc_cpu me) > 0.);
  let cal = Calib.create () in
  let c = { Host.user = 2.; sys = 0.5 } in
  check "calibration: without samples, time is not scaled" (Calib.at_ref cal c = 2.5);
  Calib.sample cal ~work_s:0.;
  check "calibration: a sample scales user time by the speed it measured, not system time"
    (Calib.speed cal > 0. && Calib.at_ref cal c = (2. *. Calib.speed cal) +. 0.5)

let small_cells () =
  let src = Cheri_workloads.Dhrystone.source { Cheri_workloads.Dhrystone.iterations = 20 } in
  Array.of_list (List.map (fun abi -> { Grid.workload = "small"; abi; source = src }) Abi.all)

(* The deterministic counters of a traced run repeat exactly. *)
let counters =
  [
    "sim.instret";
    "sim.cycles";
    "sim.cpi";
    "cache.l1_misses";
    "cache.l2_misses";
    "tagmem.cap_mem_ops";
    "tagmem.collateral_tag_clears";
    "snapshot.save_bytes";
    "snapshot.pages_written";
    "snapshot.pages_changed_ratio";
    "service.slices_per_job";
    "codegen.insns";
  ]

let traced_counters ~dir =
  let pl = Perlayer.create () in
  let tr = Trace.create true in
  let cells = small_cells () in
  let linked = Grid.compile tr cells in
  let ph = Grid.run_phase tr ~seed:7 ~passes:1 ~count_tags:true cells linked in
  Perlayer.set_sim pl
    (List.map (fun (r : Grid.run) -> r.Grid.stats) ph.Grid.runs)
    ~collateral:(List.fold_left (fun a (r : Grid.run) -> a + r.Grid.collateral) 0 ph.Grid.runs);
  let grid_sim = List.map (fun n -> Perlayer.get pl n) counters in
  (* the service worker path, replayed: two chaos-family tenants *)
  let jobs =
    List.map
      (fun i ->
        let j = Serve.long_job ~seed:7 i ~due:0. in
        let r = Serve.reference ~abi:j.Serve.abi j.Serve.source in
        j.Serve.state <- `Done (r, 0);
        (j, r))
      [ 0; 1 ]
  in
  let rtr = Trace.create true in
  let bad, stats, collateral = Serve.replay rtr ~dir jobs in
  Perlayer.of_trace pl rtr ~roots:[ "replay.job" ] ~busy_s:1.;
  Perlayer.set_sim pl stats ~collateral;
  Perlayer.set pl "service.slices_per_job" (Workload.slices_per_job (List.map fst jobs) 2);
  (grid_sim, bad, ph.Grid.runs, List.map (fun n -> Perlayer.get pl n) counters)

let test_counters_repeat ~dir =
  let g1, bad1, runs, s1 = traced_counters ~dir in
  let g2, bad2, _, s2 = traced_counters ~dir in
  check "counters: the replayed worker path matches run_serial" (bad1 = 0 && bad2 = 0);
  (* the small cells have no golden entry; the verdict says so only for
     a cell that exited with status 0 *)
  check "counters: every small cell exits cleanly"
    (List.for_all (fun (r : Grid.run) -> r.Grid.error = Some "no golden entry") runs);
  check "counters: sim/cache/tagmem counters repeat exactly" (g1 = g2);
  check "counters: save bytes, pages and slices per job repeat exactly" (s1 = s2);
  check "counters: a save was measured" (List.nth s1 7 > 0.)

(* ---- provenance and the contract file ---- *)

let test_golden bench6 =
  let results = list "results" (json bench6) in
  let num k j = Option.get (Option.bind (Json.member k j) Json.to_int) in
  check "golden: 21 cells" (List.length Golden.table = 21);
  check "golden: cycles and instret equal the committed BENCH_PR6.json"
    (List.for_all
       (fun (e : Golden.entry) ->
         List.exists
           (fun r ->
             str "workload" r = e.Golden.workload
             && str "abi" r = e.Golden.abi
             && num "cycles" r = e.Golden.cycles
             && num "instret" r = e.Golden.instret)
           results)
       Golden.table);
  check "golden: one entry per grid cell"
    (Array.for_all
       (fun (c : Grid.cell) -> Golden.find ~workload:c.Grid.workload ~abi:(Abi.name c.Grid.abi) <> None)
       (Grid.cells ()))

let test_contract benchmark =
  let b = json benchmark in
  let pairs k = List.map (fun m -> (str "name" m, str "unit" m)) (list k b) in
  check "contract: per_layer lists exactly the metrics a traced run prints" (pairs "per_layer" = Perlayer.units);
  let e2e = Workload.e2e ~setup_s:1. ~insns:1. ~jobs:1. ~ref_s:1. ~rss:1. in
  check "contract: end_to_end lists exactly the metrics a run prints"
    (pairs "end_to_end" = List.map (fun (m : Report.metric) -> (m.Report.name, m.Report.unit_)) e2e);
  check "contract: the workloads are the benchmark's"
    (List.map (str "name") (list "workloads" b) = Workload.names)

(* ---- process hygiene ---- *)

let test_hygiene ~bin ~dir =
  let sdir = Filename.concat dir "serve" in
  match Serve.start ~bin ~dir:sdir ~fleet:false with
  | Error e -> check ("hygiene: server starts (" ^ e ^ ")") false
  | Ok srv -> (
      let tree = Host.descendants srv.Serve.pid in
      check "hygiene: the server runs 2 workers" (List.length tree = 3);
      (* a run killed mid-way: the supervisor dies, its state stays;
         the workers, stopped first, outlive it and must be found by
         their executable and killed *)
      let workers = List.filter (( <> ) srv.Serve.pid) tree in
      List.iter (fun pid -> Unix.kill pid Sys.sigstop) workers;
      Unix.kill srv.Serve.pid Sys.sigkill;
      ignore (Unix.waitpid [] srv.Serve.pid);
      check "hygiene: the workers outlive a killed supervisor" (List.for_all Host.alive workers);
      Serve.kill_leftovers ~bin workers;
      check "hygiene: leftover workers are killed" (not (List.exists Host.alive workers));
      match Serve.start ~bin ~dir:sdir ~fleet:false with
      | Error e -> check ("hygiene: a server starts over a killed run's state (" ^ e ^ ")") false
      | Ok srv ->
          check "hygiene: a server starts over a killed run's state" true;
          let tree = Host.descendants srv.Serve.pid in
          Serve.stop srv;
          check "hygiene: stop leaves no process of the server's tree" (not (List.exists Host.alive tree));
          check "hygiene: stop removes the state directory" (not (Sys.file_exists sdir)))

let () =
  match Sys.argv with
  | [| _; benchmark; bench6; serve |] ->
      (* relative, to keep the server's socket path short *)
      let dir = "perfbench_test_state" in
      Workload.mkdir_p dir;
      test_openloop ();
      test_accounting ();
      test_tail ();
      test_cpu_time ();
      test_counters_repeat ~dir;
      test_golden bench6;
      test_contract benchmark;
      test_hygiene ~bin:serve ~dir;
      Cheri_service.Chaos.rm_rf dir;
      if !failures > 0 then begin
        Printf.printf "%d test(s) failed\n" !failures;
        exit 1
      end
  | _ ->
      prerr_endline "usage: test_perfbench BENCHMARK.json BENCH_PR6.json CHERI_SERVE";
      exit 2
