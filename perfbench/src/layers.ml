(* The benchmark's calls into the program's layers, each wrapped in a
   span named after the layer. Every workload goes through these, so
   traced and untraced runs execute the same calls. *)

module Codegen = Cheri_compiler.Codegen
module Asm = Cheri_asm.Asm
module Decoded = Cheri_isa.Decoded
module Machine = Cheri_isa.Machine
module Tagmem = Cheri_tagmem.Tagmem
module Snapshot = Cheri_snapshot.Snapshot

let compile tr ~job abi src =
  let typed = Trace.with_span tr ~job "minic.frontend" (fun () -> Minic.Typecheck.compile src) in
  let linked = Trace.with_span tr ~job "codegen.compile" (fun () -> Codegen.compile abi typed) in
  Trace.sample tr "codegen.insns" (float_of_int (Array.length linked.Asm.code));
  linked

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* A machine built by [Codegen.machine_for], the call the service's
   workers make. It decodes the program inside; a traced run times
   [Decoded.compile] on its own as a probe afterwards. *)
let machine tr ~job abi (linked : Asm.linked) =
  let w0 = if Trace.enabled tr then alloc_words () else 0. in
  let m = Trace.with_span tr ~job "machine.create" (fun () -> Codegen.machine_for abi linked) in
  if Trace.enabled tr then begin
    Trace.sample tr "machine.create_alloc_mib" ((alloc_words () -. w0) *. 8. /. 1048576.);
    ignore
      (Trace.with_span tr ~probe:true ~job "decoded.compile" (fun () -> Decoded.compile linked.Asm.code)
        : Decoded.program)
  end;
  m

(* One call of [Machine.run]. In a traced run it also counts the
   instructions it retired and the minor words it allocated (per
   domain in OCaml 5). *)
let run tr ~job ?fuel ?yield m =
  if not (Trace.enabled tr) then Machine.run ?fuel ?yield m
  else begin
    let i0 = Machine.instret m and w0 = Gc.minor_words () in
    let o = Trace.with_span tr ~job "machine.slice" (fun () -> Machine.run ?fuel ?yield m) in
    Trace.sample tr "machine.slice_instret" (float_of_int (Machine.instret m - i0));
    Trace.sample tr "machine.slice_minor_words" (Gc.minor_words () -. w0);
    o
  end

let save tr ~job ?note ~abi ~path m =
  match Trace.with_span tr ~job "snapshot.save" (fun () -> Snapshot.save ?note ~abi ~path m) with
  | Ok bytes ->
      Trace.sample tr "snapshot.save_bytes" (float_of_int bytes);
      Ok bytes
  | Error e -> Error (Snapshot.error_to_string e)

(* The two parts of a save that are public calls of their own: the page
   scan and the program digest, timed as probes right after a save.
   [prev] is the previous scan's data pages, to count how many of the
   written pages changed since then. Returns this scan's pages. *)
let probe_save_parts tr ~job ~abi ~prev m =
  let snap = Trace.with_span tr ~probe:true ~job "machine.snapshot" (fun () -> Machine.snapshot m) in
  ignore
    (Trace.with_span tr ~probe:true ~job "decoded.digest" (fun () ->
         Decoded.digest ~abi (Machine.program m))
      : string);
  let pages = snap.Machine.Snap.s_data_pages in
  let changed =
    List.length (List.filter (fun (i, bytes) -> List.assoc_opt i prev <> Some bytes) pages)
  in
  let written = List.length pages in
  Trace.sample tr "snapshot.pages_written" (float_of_int written);
  Trace.sample tr "snapshot.pages_changed" (float_of_int changed);
  pages

let load tr ~job path =
  match Trace.with_span tr ~job "snapshot.load" (fun () -> Snapshot.load path) with
  | Ok img -> Ok img
  | Error e -> Error (Snapshot.error_to_string e)

let restore tr ~job ~abi m img =
  match Trace.with_span tr ~job "snapshot.restore" (fun () -> Snapshot.restore m ~abi img) with
  | Ok () -> Ok ()
  | Error e -> Error (Snapshot.error_to_string e)

let md5 s = Digest.to_hex (Digest.string s)

(* Count the tag events of [m]'s memory into [sink] (collateral tag
   clears are only counted by a telemetry sink). Only the memory gets
   the sink, so no per-instruction events are recorded. *)
let count_tags sink m = Tagmem.set_sink (Machine.mem m) sink
let tag_sink () = Cheri_telemetry.Telemetry.Sink.create ~capacity:1 ()
let collateral sink = Cheri_telemetry.Telemetry.Sink.collateral_tag_clears sink
