(* The per-layer metrics of a traced run: one fixed list, in the order
   BENCHMARK.json lists them. A layer the workload does not cross reads
   0. See ../README.md for what each metric means and which end-to-end
   metric it should move. *)

let units =
  [
    ("minic.frontend_s", "s");
    ("codegen.compile_s", "s");
    ("codegen.insns", "count");
    ("decoded.compile_s", "s");
    ("decoded.digest_s", "s");
    ("machine.create_s", "s");
    ("machine.create_alloc_mb", "MiB");
    ("machine.slice_s", "s");
    ("machine.host_minsn_per_s", "Minsn/s");
    ("machine.minor_words_per_insn", "words/insn");
    ("snapshot.save_s", "s");
    ("machine.snapshot_s", "s");
    ("snapshot.save_bytes", "bytes");
    ("snapshot.pages_written", "count");
    ("snapshot.pages_changed_ratio", "ratio");
    ("snapshot.scan_share_of_save", "ratio");
    ("snapshot.digest_share_of_save", "ratio");
    ("snapshot.load_s", "s");
    ("snapshot.restore_s", "s");
    ("sim.instret", "count");
    ("sim.cycles", "count");
    ("sim.cpi", "cycles/insn");
    ("cache.l1_misses", "count");
    ("cache.l2_misses", "count");
    ("tagmem.cap_mem_ops", "count");
    ("tagmem.collateral_tag_clears", "count");
    ("exec.task_s", "s");
    ("exec.queue_wait_s", "s");
    ("exec.busy_ratio", "ratio");
    ("protocol.submit_rtt_s", "s");
    ("protocol.poll_rtt_s", "s");
    ("admission.rejected", "count");
    ("admission.retry_after_s", "s");
    ("service.queue_wait_s", "s");
    ("service.job_s", "s");
    ("service.slices_per_job", "count");
    ("service.restarts", "count");
    ("service.worker_deaths", "count");
    ("router.submit_rtt_s", "s");
    ("router.latency_p50_s", "s");
    ("router.hop_s", "s");
    ("wall.sim_minsn_per_s", "Minsn/s");
    ("wall.jobs_per_s", "1/s");
    ("wall.latency_p50_s", "s");
    ("wall.latency_tail_s", "s");
    ("wall.latency_tail_pct", "percentile");
    ("host.speed", "ratio");
    ("share.compile", "ratio");
    ("share.machine.create", "ratio");
    ("share.machine.slice", "ratio");
    ("share.snapshot.save", "ratio");
    ("share.snapshot.load", "ratio");
    ("share.snapshot.restore", "ratio");
    ("bench.generator_late_s", "s");
    ("bench.failed_ratio", "ratio");
    ("bench.trace_overhead", "ratio");
    ("bench.trace_coverage", "ratio");
  ]

type t = (string, float) Hashtbl.t

let create () : t =
  let t = Hashtbl.create 64 in
  List.iter (fun (n, _) -> Hashtbl.replace t n 0.) units;
  t

let set (t : t) name v =
  if not (Hashtbl.mem t name) then invalid_arg ("Perlayer.set: unknown metric " ^ name);
  Hashtbl.replace t name v

let get (t : t) name = Hashtbl.find t name
let to_metrics (t : t) = List.map (fun (n, u) -> Report.m n u (get t n)) units

(* The layers of the in-process paths, as span names. *)
let path_layers =
  [
    "minic.frontend";
    "codegen.compile";
    "machine.create";
    "machine.slice";
    "snapshot.save";
    "snapshot.load";
    "snapshot.restore";
  ]

let ratio a b = if b > 0. then a /. b else 0.

(* The median of a sample, 0 for a layer that was never crossed. *)
let median l = if l = [] then 0. else Stats.median l

(* Time spent in the path's root spans, less the probes run inside
   them (they repeat work and are not part of the path). *)
let path_s tr ~roots =
  Stats.sum (List.concat_map (Trace.durations tr) roots) -. Trace.probe_s tr

(* Fill every metric a trace of the in-process path gives. [roots] names
   the span that wraps one unit of the path (a grid cell, a resume
   slice, a replayed job); [busy_s] is the wall time the path was given,
   summed over the domains that ran it. *)
let of_trace t tr ~roots ~busy_s =
  let selfs = Trace.self_times tr in
  (* probes repeat work done inside another call: not part of the path *)
  let self name =
    List.fold_left
      (fun acc ((s : Trace.span), v) -> if s.name = name && not s.probe then acc +. v else acc)
      0. selfs
  in
  let med name = Trace.median_s tr name in
  let sum name = Stats.sum (Trace.samples tr name) in
  let probe_s = Trace.probe_s tr in
  let root_s = path_s tr ~roots in
  set t "minic.frontend_s" (med "minic.frontend");
  set t "codegen.compile_s" (med "codegen.compile");
  set t "codegen.insns" (sum "codegen.insns");
  set t "decoded.compile_s" (med "decoded.compile");
  set t "decoded.digest_s" (med "decoded.digest");
  set t "machine.create_s" (med "machine.create");
  set t "machine.create_alloc_mb" (median (Trace.samples tr "machine.create_alloc_mib"));
  set t "machine.slice_s" (med "machine.slice");
  let slice_total = Stats.sum (Trace.durations tr "machine.slice") in
  let instret = sum "machine.slice_instret" in
  set t "machine.host_minsn_per_s" (ratio instret slice_total /. 1e6);
  set t "machine.minor_words_per_insn" (ratio (sum "machine.slice_minor_words") instret);
  set t "snapshot.save_s" (med "snapshot.save");
  set t "machine.snapshot_s" (med "machine.snapshot");
  set t "snapshot.save_bytes" (median (Trace.samples tr "snapshot.save_bytes"));
  set t "snapshot.pages_written" (median (Trace.samples tr "snapshot.pages_written"));
  set t "snapshot.pages_changed_ratio"
    (ratio (sum "snapshot.pages_changed") (sum "snapshot.pages_written"));
  set t "snapshot.scan_share_of_save" (ratio (med "machine.snapshot") (med "snapshot.save"));
  set t "snapshot.digest_share_of_save" (ratio (med "decoded.digest") (med "snapshot.save"));
  set t "snapshot.load_s" (med "snapshot.load");
  set t "snapshot.restore_s" (med "snapshot.restore");
  let share names = ratio (Stats.sum (List.map self names)) root_s in
  set t "share.compile" (share [ "minic.frontend"; "codegen.compile" ]);
  set t "share.machine.create" (share [ "machine.create" ]);
  set t "share.machine.slice" (share [ "machine.slice" ]);
  set t "share.snapshot.save" (share [ "snapshot.save" ]);
  set t "share.snapshot.load" (share [ "snapshot.load" ]);
  set t "share.snapshot.restore" (share [ "snapshot.restore" ]);
  set t "bench.trace_coverage" (ratio (Stats.sum (List.map self path_layers)) (busy_s -. probe_s))

(* Stats of a finished machine, summed over a set of runs. *)
let set_sim t (stats : Cheri_isa.Machine.stats list) ~collateral =
  let s f = float_of_int (List.fold_left (fun a st -> a + f st) 0 stats) in
  let open Cheri_isa.Machine in
  let cycles = s (fun st -> st.st_cycles) and instret = s (fun st -> st.st_instret) in
  set t "sim.instret" instret;
  set t "sim.cycles" cycles;
  set t "sim.cpi" (ratio cycles instret);
  set t "cache.l1_misses" (s (fun st -> st.st_l1_misses));
  set t "cache.l2_misses" (s (fun st -> st.st_l2_misses));
  set t "tagmem.cap_mem_ops" (s (fun st -> st.st_cap_loads + st.st_cap_stores));
  set t "tagmem.collateral_tag_clears" (float_of_int collateral)

(* The layer budget of a traced path, as note lines: for each layer its
   calls, median and total self time, and share of the path's time. *)
let budget tr ~roots =
  let root_s = path_s tr ~roots in
  let line name (l : Trace.layer) ~probe =
    Printf.sprintf "budget %-18s %6d calls  median %10.6f s  self %9.4f s  %5.1f%%%s" name l.calls
      (Stats.median l.durations) l.self_s
      (100. *. ratio l.self_s root_s)
      (if probe then "  (probe, not in the path)" else "")
  in
  let layers = Trace.layers tr in
  List.filter_map
    (fun name -> Option.map (line name ~probe:false) (List.assoc_opt name layers))
    (roots @ path_layers)
  @ List.filter_map
      (fun name -> Option.map (line name ~probe:true) (List.assoc_opt name layers))
      [ "decoded.compile"; "machine.snapshot"; "decoded.digest" ]
