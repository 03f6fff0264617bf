(* The [grid] workload: the paper's evaluation grid, 7 programs x 3 ABIs
   at the scales of [bench/main.exe json], each cell run to completion
   in-process through [Exec.Pool.map] on one domain. One domain, because
   the benchmark measures CPU time: a second domain would charge to the
   run the time it spins in the runtime's stop-the-world barriers while
   the host has descheduled its peer.

   A run is a fixed number of whole passes over the 21 cells, each pass
   in a seeded order, all through one pool map. The number of passes follows from the run's length
   and the time a pass took on the reference host, so the work in a run
   (and the size of its latency sample) does not depend on how fast the
   host or the program is: a faster program finishes sooner. *)

module W = Cheri_workloads
module Abi = Cheri_compiler.Abi
module Machine = Cheri_isa.Machine
module Pool = Cheri_exec.Exec.Pool

type cell = { workload : string; abi : Abi.t; source : string }

let sources () =
  let olden =
    List.map
      (fun (k : W.Olden.kernel) -> ("Olden/" ^ k.W.Olden.kname, k.W.Olden.source W.Olden.default, None))
      W.Olden.kernels
  in
  olden
  @ [
      ("Dhrystone", W.Dhrystone.source W.Dhrystone.default, None);
      ( "tcpdump",
        W.Tcpdump_sim.source W.Tcpdump_sim.default,
        Some (W.Tcpdump_sim.source_v2 W.Tcpdump_sim.default) );
      ("zlib", W.Zlib_like.source { W.Zlib_like.input_size = 32768; boundary_copy = false }, None);
    ]

let cells () =
  List.concat_map
    (fun (workload, src, v2) ->
      List.map
        (fun abi ->
          let source =
            match (abi, v2) with Abi.Cheri Cheri_core.Cap_ops.V2, Some s -> s | _ -> src
          in
          { workload; abi; source })
        Abi.all)
    (sources ())
  |> Array.of_list

let fuel = 600_000_000
let jobs = 1

(* Check a finished cell against the golden table; [None] if it matches. *)
let verdict (c : cell) outcome m =
  match outcome with
  | Machine.Exit 0L -> (
      match Golden.find ~workload:c.workload ~abi:(Abi.name c.abi) with
      | None -> Some "no golden entry"
      | Some g ->
          let cycles = Machine.cycles m and instret = Machine.instret m in
          let md5 = Layers.md5 (Machine.output m) in
          if cycles = g.Golden.cycles && instret = g.Golden.instret && md5 = g.Golden.md5 then None
          else
            Some
              (Printf.sprintf "cycles %d/%d instret %d/%d md5 %s/%s (got/golden)" cycles
                 g.Golden.cycles instret g.Golden.instret md5 g.Golden.md5))
  | o -> Some (Format.asprintf "stopped with %a" Machine.pp_outcome o)

(* Compile every cell; the set-up step, timed by the caller. *)
let compile tr cells =
  Array.mapi (fun job c -> Layers.compile tr ~job c.abi c.source) cells

type run = {
  cell : int;
  pass : int;
  domain : int;
  t_start : float;
  t_end : float;
  cpu : Host.cpu;  (* the run's CPU time; the pool has one domain, so it is this process's *)
  stats : Machine.stats;
  collateral : int;
  error : string option;
}

(* [cal] holds the speed samples taken after each run; [aside_s] is the
   wall time spent on them and on the collections before each run. *)
type phase = { runs : run list; errors : string list; wall_s : float; aside_s : float; cal : Calib.t }

let cpu ph = List.fold_left (fun a r -> Host.cpu_add a r.cpu) Host.cpu_zero ph.runs

let order ~seed ~pass n =
  let st = Random.State.make [| seed; pass; 0x9e1d |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Seconds one pass took on the reference host (2-vCPU Xeon VM, release
   build); a run of [seconds] is [passes ~seconds] passes. *)
let nominal_pass_s = 10.0
let passes ~seconds = max 1 (int_of_float (Float.round (seconds /. nominal_pass_s)))

(* One measured phase of [passes] passes. Each run starts after a full
   major collection, so that the garbage of earlier runs is not collected
   during it, and the peak memory of the phase is that of its largest
   cell whatever the order; each is followed by a speed sample. Neither is
   part of the run's time. With [count_tags], pass 0 attaches a tag-event
   sink to each machine to count collateral tag clears. *)
let run_phase tr ~seed ~passes ~count_tags cells linked =
  let n = Array.length cells in
  let tasks = List.concat_map (fun p -> List.map (fun c -> (p, c)) (order ~seed ~pass:p n)) (List.init passes Fun.id) in
  let cal = Calib.create () in
  let aside = ref 0. in
  let t0 = Trace.now () in
  let task (pass, ci) =
    let a0 = Trace.now () in
    Gc.full_major ();
    aside := !aside +. (Trace.now () -. a0);
    let r =
      Trace.with_span tr ~job:ci "exec.task" (fun () ->
          let t_start = Trace.now () and c0 = Host.self_cpu () in
          let c = cells.(ci) in
          let m = Layers.machine tr ~job:ci c.abi linked.(ci) in
          let sink = Layers.tag_sink () in
          if count_tags && pass = 0 then Layers.count_tags sink m;
          let outcome = Layers.run tr ~job:ci ~fuel m in
          let cpu = Host.cpu_sub (Host.self_cpu ()) c0 in
          let error = verdict c outcome m in
          {
            cell = ci;
            pass;
            domain = (Domain.self () :> int);
            t_start;
            t_end = Trace.now ();
            cpu;
            stats = Machine.stats m;
            collateral = Layers.collateral sink;
            error;
          })
    in
    let a0 = Trace.now () in
    Calib.sample cal ~work_s:(Host.cpu_total r.cpu);
    aside := !aside +. (Trace.now () -. a0);
    r
  in
  let results = Pool.map ~jobs task tasks in
  let wall_s = Trace.now () -. t0 in
  let runs = List.filter_map (fun (c : _ Pool.cell) -> Result.to_option c.Pool.result) results in
  let errors =
    List.filter_map
      (fun (c : _ Pool.cell) ->
        match c.Pool.result with Error e -> Some ("worker exception: " ^ e.Pool.exn) | Ok _ -> None)
      results
  in
  { runs; errors; wall_s; aside_s = !aside; cal }
