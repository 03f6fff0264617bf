(* The decode stage: Decoded.compile must be a pure, semantics-neutral
   re-encoding of the instruction stream. The properties run generated
   mini-C programs through two independently decoded copies of the same
   image and through the interpreter reference, and the unit tests pin
   the decode-time rejection of code the table cannot represent
   (unresolved symbols, out-of-range register operands). *)

module I = Cheri_isa.Insn
module Decoded = Cheri_isa.Decoded
module Machine = Cheri_isa.Machine
module Abi = Cheri_compiler.Abi
module Codegen = Cheri_compiler.Codegen
module Gen = Cheri_fuzz.Gen
module Campaign = Cheri_fuzz.Campaign

let abis = Abi.[ Mips; Cheri Cheri_core.Cap_ops.V2; Cheri Cheri_core.Cap_ops.V3 ]

(* fuel bound: generated programs can loop; the property only asserts
   that both copies stop the same way, exhaustion included *)
let fuel = 2_000_000

let run_compiled abi linked =
  let m = Codegen.machine_for abi linked in
  let outcome = Machine.run ~fuel m in
  let st = Machine.stats m in
  (Format.asprintf "%a" Machine.pp_outcome outcome,
   Machine.output m, st.Machine.st_cycles, st.Machine.st_instret)

(* Two machines built from two independent Decoded.compile runs of the
   same linked image must execute identically: outcome, output bytes,
   cycle count and retired-instruction count. *)
let prop_decode_deterministic =
  QCheck.Test.make ~name:"decode: independent compiles execute identically" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let src = Gen.source ~seed in
      List.for_all
        (fun abi ->
          match Codegen.compile_source abi src with
          | exception Abi.Unsupported _ -> true (* e.g. pointer diff under V2 *)
          | linked -> run_compiled abi linked = run_compiled abi linked)
        abis)

(* Decode bookkeeping: the table remembers its source verbatim, keeps
   one row per instruction, classifies rows exactly as the undecoded
   stream would, and hashes to the pre-decode digest — on the first
   call and on the remembered repeat, for this ABI and for another one
   asked after it. *)
let prop_decode_bookkeeping =
  QCheck.Test.make ~name:"decode: source/length/class/digest preserved" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let src = Gen.source ~seed in
      List.for_all
        (fun abi ->
          match Codegen.compile_source abi src with
          | exception Abi.Unsupported _ -> true
          | linked ->
              let code = linked.Cheri_asm.Asm.code in
              let p = Decoded.compile code in
              let name = Abi.name abi in
              Decoded.source p == code
              && Decoded.length p = Array.length code
              && Decoded.digest ~abi:name p = Decoded.source_digest ~abi:name code
              && Decoded.digest ~abi:name p = Decoded.source_digest ~abi:name (Decoded.source p)
              && Decoded.digest ~abi:"other" p = Decoded.source_digest ~abi:"other" code
              && Array.for_all
                   (fun i -> Decoded.telemetry_class p i = I.telemetry_class code.(i))
                   (Array.init (Array.length code) Fun.id))
        abis)

(* The end-to-end semantics check: the softcore (which executes only
   through the decoded table) must agree with the interpreter reference
   model, which never touches Decoded. *)
let prop_decode_agrees_with_interpreter =
  let interp =
    match Cheri_models.Registry.lookup "cheriv3" with
    | Some e -> Campaign.interp_impl e
    | None -> failwith "registry lost the cheriv3 model"
  in
  let softcore = Campaign.compiled_impl (Abi.Cheri Cheri_core.Cap_ops.V3) in
  QCheck.Test.make ~name:"decode: softcore agrees with interpreter reference" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      not (Campaign.divergent (Campaign.run_impls [ interp; softcore ] (Gen.source ~seed))))

(* -- decode-time rejection ------------------------------------------------ *)

let expect_invalid name code =
  match Decoded.compile code with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: unresolvable code accepted by Decoded.compile" name

let test_rejects_unresolved_branch () =
  expect_invalid "J" [| I.J (I.Sym "loop") |];
  expect_invalid "Branch" [| I.Branch (I.EQ, 1, 2, I.Sym "skip") |];
  expect_invalid "Branchz" [| I.Branchz (I.LTZ, 1, I.Sym "skip") |];
  expect_invalid "Jal" [| I.Jal (I.Sym "fn") |]

let test_rejects_unresolved_immediate () =
  expect_invalid "Li" [| I.Li (8, I.Sym_addr ("v", 0L)) |];
  expect_invalid "Alui" [| I.Alui (I.ADD, 8, 8, I.Sym_addr ("v", 8L)) |]

let test_rejects_register_out_of_range () =
  expect_invalid "rd" [| I.Alu (I.ADD, 32, 0, 0) |];
  expect_invalid "rs" [| I.Alu (I.ADD, 1, -1, 0) |];
  expect_invalid "cap" [| I.Cgettag (1, 64) |]

let test_create_code_rejects_unresolved () =
  match
    Machine.create_code (Machine.default_config Cheri_core.Cap_ops.V3)
      ~code:[| I.J (I.Sym "x") |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Machine.create_code accepted unresolved code"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_decode_deterministic;
    QCheck_alcotest.to_alcotest prop_decode_bookkeeping;
    QCheck_alcotest.to_alcotest prop_decode_agrees_with_interpreter;
    Alcotest.test_case "rejects unresolved branch targets" `Quick
      test_rejects_unresolved_branch;
    Alcotest.test_case "rejects unresolved immediates" `Quick
      test_rejects_unresolved_immediate;
    Alcotest.test_case "rejects register operands outside 0..31" `Quick
      test_rejects_register_out_of_range;
    Alcotest.test_case "create_code rejects unresolved code" `Quick
      test_create_code_rejects_unresolved;
  ]
