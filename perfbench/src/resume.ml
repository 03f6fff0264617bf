(* The [resume] workload: the 7 grid programs under CHERIv3, run in
   1M-instruction slices. Every slice ends with [Snapshot.save]; the
   next slice runs on a fresh machine restored from that file, as a
   migration or a failover does. A program must end exactly as its
   uninterrupted run does (the grid golden's CHERIv3 row).

   Like the grid, a run is a fixed number of whole passes over the
   programs, each in a seeded order, set by the run's length and the
   reference host's pass time; it runs on one domain. *)

module Abi = Cheri_compiler.Abi
module Machine = Cheri_isa.Machine

let abi = Abi.Cheri Cheri_core.Cap_ops.V3
let abi_name = Abi.name abi
let slice = 1_000_000

let programs () =
  Grid.cells () |> Array.to_list |> List.filter (fun (c : Grid.cell) -> c.Grid.abi = abi) |> Array.of_list

type result = {
  instret : int;
  cpu : Host.cpu;  (* the program's CPU time, every slice cycle of it *)
  stats : Machine.stats option;  (* of the finished machine *)
  slice_s : float list;  (* one per slice: run, save, load, create, restore *)
  collateral : int;  (* collateral tag clears, counted when probing *)
  error : string option;
}

(* Run one program to the end, checkpointing and restoring between
   slices. With [probe], each save is followed by the probes of its
   page scan and digest, and tag events are counted. *)
let run_program tr ~job ~dir ~probe (p : Grid.cell) linked =
  let path = Filename.concat dir (Printf.sprintf "program_%d.snap" job) in
  let sink = Layers.tag_sink () in
  let machine () =
    let m = Layers.machine tr ~job abi linked in
    if probe then Layers.count_tags sink m;
    m
  in
  let collateral () = Layers.collateral sink in
  let c0 = Host.self_cpu () in
  let rec go m prev_pages times =
    let t0 = Trace.now () in
    let step =
      Trace.with_span tr ~job "resume.slice" (fun () ->
          match Layers.run tr ~job ~fuel:slice ~yield:true m with
          | Machine.Yielded -> (
              match Layers.save tr ~job ~abi:abi_name ~path m with
              | Error e -> `Failed ("save: " ^ e)
              | Ok _ -> (
                  let pages =
                    if probe then Layers.probe_save_parts tr ~job ~abi:abi_name ~prev:prev_pages m
                    else prev_pages
                  in
                  match Layers.load tr ~job path with
                  | Error e -> `Failed ("load: " ^ e)
                  | Ok img -> (
                      let m' = machine () in
                      match Layers.restore tr ~job ~abi:abi_name m' img with
                      | Error e -> `Failed ("restore: " ^ e)
                      | Ok () -> `Next (m', pages))))
          | o -> `Finished o)
    in
    let times = (Trace.now () -. t0) :: times in
    match step with
    | `Next (m', pages) -> go m' pages times
    | `Failed e ->
        {
          instret = Machine.instret m;
          cpu = Host.cpu_sub (Host.self_cpu ()) c0;
          stats = None;
          slice_s = times;
          collateral = collateral ();
          error = Some e;
        }
    | `Finished o ->
        {
          instret = Machine.instret m;
          cpu = Host.cpu_sub (Host.self_cpu ()) c0;
          stats = Some (Machine.stats m);
          slice_s = times;
          collateral = collateral ();
          error = Grid.verdict p o m;
        }
  in
  let r = go (machine ()) [] [] in
  (try Sys.remove path with Sys_error _ -> ());
  r

(* [cal] holds the speed samples taken after each program. *)
type phase = { results : (int * result) list; wall_s : float; cal : Calib.t }

let cpu ph = List.fold_left (fun a (_, r) -> Host.cpu_add a r.cpu) Host.cpu_zero ph.results

(* Seconds one pass took on the reference host; see [Grid.passes]. *)
let nominal_pass_s = 9.0
let passes ~seconds = max 1 (int_of_float (Float.round (seconds /. nominal_pass_s)))

(* As in [Grid.run_phase], each program starts after a full major
   collection and is followed by a speed sample. *)
let run_phase tr ~seed ~passes ~dir ~probe programs linked =
  let n = Array.length programs in
  let cal = Calib.create () in
  let t0 = Trace.now () in
  let results =
    List.concat_map
      (fun pass ->
        List.map
          (fun i ->
            Gc.full_major ();
            let r = run_program tr ~job:i ~dir ~probe:(probe && pass = 0) programs.(i) linked.(i) in
            Calib.sample cal ~work_s:(Host.cpu_total r.cpu);
            (pass, r))
          (Grid.order ~seed ~pass n))
      (List.init passes Fun.id)
  in
  { results; wall_s = Trace.now () -. t0; cal }
