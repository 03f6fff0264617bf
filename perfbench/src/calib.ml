(* A fixed piece of simulator-like work that belongs to the benchmark,
   not to the program: a toy machine that steps a pseudo-random
   instruction stream over a 1 MiB memory and a register file, with
   loads, stores, ALU work and data-dependent branches. It allocates
   nothing.

   The benchmark's host is shared. How much work one CPU second buys
   drifts by a third or more over minutes as other machines' work comes
   and goes on the same cores; CPU time already leaves out the time the
   run was not scheduled, but not this. Run between the units of a
   workload, the loop measures that drift at the same moments, and the
   workload's CPU time scaled by the loop's speed does not depend on it.
   Sampled alongside the grid's programs for 12 minutes, the loop's speed
   moved with theirs one for one (slope 0.99): over 16 s blocks the
   programs' time drifted with a standard deviation of 7.5% and the
   scaled time with 1.2%. A loop over 16 MiB, which misses the caches,
   tracked them only two thirds of the way. *)

let mem_bytes = 1 lsl 20
let mem = Bytes.make mem_bytes '\001'
let regs = Bytes.make (32 * 8) '\000'
let state = ref 0x2545F4914F6CDD1D

let steps n =
  let x = ref !state in
  for _ = 1 to n do
    x := (!x * 0x5851F42D4C957F2D) + 0x14057B7EF767814F;
    let w = !x lsr 7 in
    let rd = (w land 31) lsl 3 and rs = ((w lsr 5) land 31) lsl 3 in
    let addr = (w lsr 10) land (mem_bytes - 8) in
    match (w lsr 40) land 7 with
    | 0 | 1 | 2 ->
        Bytes.set_int64_le regs rd (Int64.add (Bytes.get_int64_le regs rs) (Bytes.get_int64_le mem addr))
    | 3 | 4 -> Bytes.set_int64_le mem addr (Bytes.get_int64_le regs rs)
    | 5 ->
        let v = Bytes.get_int64_le regs rs in
        if Int64.logand v 1L = 0L then Bytes.set_int64_le regs rd (Int64.shift_right_logical v 1)
        else Bytes.set_int64_le regs rd (Int64.add (Int64.mul v 3L) 1L)
    | _ -> Bytes.set_int64_le regs rd (Int64.logxor (Bytes.get_int64_le regs rd) (Int64.of_int w))
  done;
  state := !x

(* The unit of the scaled times: a reference second is the CPU time in
   which the loop runs [ref_rate] steps. It is near the loop's speed on
   the 2-vCPU Xeon VM the benchmark was tuned on. *)
let ref_rate = 60e6

(* Each sample runs the loop for about this share of the work it follows,
   and for at least [min_steps] (some 5 ms). *)
let share = 0.05
let min_steps = 300_000

(* The samples taken alongside one measurement. *)
type t = { mutable steps : int; mutable cpu_s : float }

let create () = { steps = 0; cpu_s = 0. }

(* Sample the host's speed right after [work_s] CPU seconds of work. *)
let sample t ~work_s =
  let n = max min_steps (int_of_float (share *. work_s *. ref_rate)) in
  let c0 = Host.self_cpu_s () in
  steps n;
  t.cpu_s <- t.cpu_s +. (Host.self_cpu_s () -. c0);
  t.steps <- t.steps + n

(* The loop's speed over [t]'s samples as a share of [ref_rate]. *)
let speed t = if t.cpu_s > 0. then float_of_int t.steps /. t.cpu_s /. ref_rate else 1.

(* CPU time measured alongside [t]'s samples, in reference seconds. The
   loop is user code and tracks how fast user code runs; system time
   (page faults, file and socket I/O) does not drift with it the same
   way, and is taken as measured. *)
let at_ref t (c : Host.cpu) = (c.Host.user *. speed t) +. c.Host.sys

(* The host's speed now, from one sample of some 0.1 s. *)
let speed_now () =
  let t = create () in
  sample t ~work_s:2.;
  speed t
