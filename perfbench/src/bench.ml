(* The benchmark's command line; see ../README.md. Normally started by
   ../run.py, which builds it, gives it a state directory and cleans up
   after it. Prints notes (lines starting with #) and, as its last line,
   the run's JSON result. Exit 0 on a correct run, 1 on an incorrect
   one, 2 on bad usage or a refused build. *)

open Perfbench

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --state-dir DIR --serve-bin PATH \
   [--trace-out FILE]"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref false in
  let state_dir = ref "" and serve_bin = ref "" and trace_out = ref None in
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline ("usage: " ^ usage);
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> die "--seed takes an integer");
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> die "--seconds takes a positive number");
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> die "--trace takes 0 or 1");
        parse rest
    | "--state-dir" :: v :: rest ->
        state_dir := v;
        parse rest
    | "--serve-bin" :: v :: rest ->
        serve_bin := v;
        parse rest
    | "--trace-out" :: v :: rest ->
        trace_out := Some v;
        parse rest
    | a :: _ -> die ("unknown argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload Workload.names) then
    die ("--workload must be one of " ^ String.concat ", " Workload.names);
  if !state_dir = "" then die "--state-dir is required";
  if !serve_bin = "" && (!workload = "serve-short" || !workload = "serve-long") then
    die "--serve-bin is required for the service workloads";
  if Build_info.profile <> "release" then begin
    prerr_endline
      (Printf.sprintf
         "perfbench: refusing to measure a %s-profile build (it disables cross-module inlining); \
          build with --profile release"
         Build_info.profile);
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  at_exit Workload.stop_all;
  Workload.mkdir_p !state_dir;
  let cfg =
    {
      Workload.seed = !seed;
      seconds = !seconds;
      trace = !trace;
      state_dir = !state_dir;
      serve_bin = !serve_bin;
      trace_out = !trace_out;
    }
  in
  Printf.printf "# host %s\n%!" (Host.fingerprint ());
  let r = Workload.run cfg !workload in
  Report.print_table r;
  print_endline (Report.to_json r);
  exit (if r.Report.correct then 0 else 1)
