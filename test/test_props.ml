(* Cross-cutting property tests: the machine allocator, the cache
   model, the flat heap, and capability encoding invariants. *)

module I = Cheri_isa.Insn
module Machine = Cheri_isa.Machine
module Cache = Cheri_isa.Cache
module Asm = Cheri_asm.Asm
module FH = Cheri_models.Flat_heap
module Cap = Cheri_core.Capability
module Perms = Cheri_core.Perms

(* -- machine allocator ---------------------------------------------------- *)

(* The allocator property runs a generated program: N mallocs of random
   sizes, storing each base into an array, then checking alignment and
   pairwise disjointness in-program. *)
let allocator_program sizes =
  let n = List.length sizes in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "int main(void) {\n  long base[%d];\n  long len[%d];\n" n n);
  List.iteri
    (fun i size ->
      Buffer.add_string buf
        (Printf.sprintf "  base[%d] = (long)malloc(%d); len[%d] = %d;\n" i size i size))
    sizes;
  Buffer.add_string buf
    (Printf.sprintf
       {|
  for (int i = 0; i < %d; i++) {
    if (base[i] %% 32 != 0) return 1;             /* alignment */
    for (int j = 0; j < %d; j++) {
      if (i != j) {
        if (base[i] < base[j] + len[j] && base[j] < base[i] + len[i]) return 2;  /* overlap */
      }
    }
  }
  return 0;
}
|}
       n n);
  Buffer.contents buf

let prop_allocator_disjoint =
  QCheck.Test.make ~name:"allocator blocks aligned and pairwise disjoint" ~count:30
    QCheck.(list_of_size (Gen.int_range 2 12) (int_range 1 400))
    (fun sizes ->
      match Cheri_compiler.Codegen.run Cheri_compiler.Abi.Mips (allocator_program sizes) with
      | Machine.Exit 0L, _ -> true
      | _ -> false)

(* -- cache model ----------------------------------------------------------- *)

let prop_cache_hit_after_access =
  QCheck.Test.make ~name:"cache: immediate re-access hits" ~count:200
    QCheck.(int_bound 0xfffff)
    (fun addr ->
      let c = Cache.create ~name:"t" ~size_bytes:4096 ~ways:2 ~line_bytes:32 in
      ignore (Cache.access c (Int64.of_int addr));
      Cache.access c (Int64.of_int addr))

let prop_cache_lru =
  QCheck.Test.make ~name:"cache: LRU victim is evicted first" ~count:100
    QCheck.(int_bound 255)
    (fun set ->
      (* direct-mapped-per-way exercise: 2-way cache, fill a set with two
         lines, touch the first, insert a third: the second must be gone *)
      let c = Cache.create ~name:"t" ~size_bytes:(256 * 2 * 32) ~ways:2 ~line_bytes:32 in
      let addr k = Int64.of_int ((k * 256 * 32) + (set * 32)) in
      ignore (Cache.access c (addr 0));
      ignore (Cache.access c (addr 1));
      ignore (Cache.access c (addr 0));
      (* touch 0: 1 becomes LRU *)
      ignore (Cache.access c (addr 2));
      (* evicts 1 *)
      Cache.access c (addr 0) && not (Cache.access c (addr 1)))

let prop_cache_stats_consistent =
  QCheck.Test.make ~name:"cache: hits + misses = accesses" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 0xffff))
    (fun addrs ->
      let c = Cache.create ~name:"t" ~size_bytes:2048 ~ways:4 ~line_bytes:32 in
      List.iter (fun a -> ignore (Cache.access c (Int64.of_int a))) addrs;
      Cache.hits c + Cache.misses c = List.length addrs)

(* -- flat heap -------------------------------------------------------------- *)

let prop_flat_heap_find =
  QCheck.Test.make ~name:"flat heap: find locates every allocated byte" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 1 200))
    (fun sizes ->
      let h = FH.create () in
      let objs = List.map (fun s -> FH.alloc h ~size:(Int64.of_int s) ~const:false) sizes in
      List.for_all
        (fun (o : FH.obj) ->
          let mid = Int64.add o.FH.vbase (Int64.div o.FH.size 2L) in
          match FH.find h mid with Some o' -> o'.FH.id = o.FH.id | None -> false)
        objs)

let prop_flat_heap_guard_gaps =
  QCheck.Test.make ~name:"flat heap: objects never contiguous (guard gaps)" ~count:60
    QCheck.(list_of_size (Gen.int_range 2 20) (int_range 1 100))
    (fun sizes ->
      let h = FH.create () in
      let objs = List.map (fun s -> FH.alloc h ~size:(Int64.of_int s) ~const:false) sizes in
      let sorted = List.sort (fun (a : FH.obj) b -> compare a.FH.vbase b.FH.vbase) objs in
      let rec check = function
        | (a : FH.obj) :: (b : FH.obj) :: rest ->
            Int64.add a.FH.vbase a.FH.size < b.FH.vbase && check (b :: rest)
        | _ -> true
      in
      check sorted)

(* -- capability encoding ----------------------------------------------------- *)

let arbitrary_perm_bits = QCheck.map (fun b -> Perms.of_bits (Int64.of_int (b land 0xff))) QCheck.(int_bound 255)

let prop_sealed_roundtrip =
  QCheck.Test.make ~name:"sealed capabilities roundtrip through the 256-bit encoding" ~count:200
    QCheck.(triple (pair (int_bound 1_000_000) (int_bound 100_000)) (int_bound 0xffff) arbitrary_perm_bits)
    (fun ((base, len), otype, perms) ->
      let c = Cap.make ~base:(Int64.of_int base) ~length:(Int64.of_int len) ~perms in
      let sealed = Cap.seal_unchecked c ~otype:(Int64.of_int otype) in
      Cap.equal sealed (Cap.of_words ~tag:true (Cap.to_words sealed)))

let prop_tagmem_cap_roundtrip_random =
  QCheck.Test.make ~name:"tagmem: random capabilities roundtrip with tags" ~count:200
    QCheck.(pair (int_bound 100) (pair (int_bound 1_000_000) (int_bound 100_000)))
    (fun (slot, (base, len)) ->
      let mem = Cheri_tagmem.Tagmem.create ~size_bytes:8192 () in
      let addr = Int64.of_int (slot * 32) in
      let c = Cap.make ~base:(Int64.of_int base) ~length:(Int64.of_int len) ~perms:Perms.all in
      Cheri_tagmem.Tagmem.store_cap_i64 mem ~addr c;
      Cap.equal c (Cheri_tagmem.Tagmem.load_cap_i64 mem ~addr))

(* -- written-page map ------------------------------------------------------ *)

module Mem = Cheri_tagmem.Tagmem

(* What [snapshot_pages] must return, from a scan of the whole memory
   through the public accessors: every nonzero page of the data store,
   and every nonzero page of the packed tag store (bit [g land 7] of
   byte [g lsr 3] is granule [g]'s tag). *)
let reference_pages mem =
  let page = Mem.page_bytes in
  let zero = String.make page '\000' in
  let nonzero_pages n get =
    List.filter_map
      (fun idx ->
        let off = idx * page in
        let len = min page (n - off) in
        let s = get off len in
        if s <> String.sub zero 0 len then Some (idx, s) else None)
      (List.init ((n + page - 1) / page) Fun.id)
  in
  let size = Mem.size mem and granule = Mem.granule mem in
  let granules = size / granule in
  let tags = Bytes.make ((granules + 7) / 8) '\000' in
  for g = 0 to granules - 1 do
    if Mem.tag_at mem (g * granule) then
      let byte = Char.code (Bytes.get tags (g lsr 3)) in
      Bytes.set tags (g lsr 3) (Char.chr (byte lor (1 lsl (g land 7))))
  done;
  ( nonzero_pages size (fun off len -> Bytes.to_string (Mem.load_bytes mem off ~len)),
    nonzero_pages (Bytes.length tags) (fun off len -> Bytes.sub_string tags off len) )

(* Random writes through every entry point that can make a page
   nonzero (or zero again): stores that straddle a page boundary,
   multi-page byte blits, the short last page, capability stores, the
   below-architecture hooks on pages nothing else wrote, and restores
   of an earlier dump. After each one the map-driven [snapshot_pages]
   must equal the full scan. The store is 5 pages + 96 bytes, so its
   last data page is short. *)
let prop_written_pages_invariant =
  QCheck.Test.make ~name:"tagmem: written-page snapshot equals a full scan" ~count:200
    QCheck.(pair (int_bound 0x3fffffff) (int_range 1 60))
    (fun (seed, steps) ->
      let rs = Random.State.make [| seed |] in
      let page = Mem.page_bytes in
      let size = (5 * page) + 96 in
      let mem = Mem.create ~size_bytes:size () in
      let int n = Random.State.int rs n in
      (* half the values are zero, so pages also go back to all-zero *)
      let value () = if Random.State.bool rs then 0L else Random.State.int64 rs Int64.max_int in
      (* an address for a [len]-byte access: anywhere, straddling a page
         boundary, or at the very end of the store *)
      let addr len =
        match int 3 with
        | 0 -> int (size - len + 1)
        | 1 -> max 0 (min (size - len) (((1 + int 5) * page) - 1 - int (max 1 (len - 1))))
        | _ -> size - len
      in
      let cap_addr () = min (size - 32) (addr 32) land lnot 31 in
      let lane () =
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 (value ());
        b
      in
      let saved = ref (Mem.snapshot_pages mem) in
      let step () =
        match int 10 with
        | 0 -> Mem.store_byte mem (addr 1) (Int64.to_int (value ()))
        | 1 ->
            let sz = List.nth [ 1; 2; 4; 8 ] (int 4) in
            Mem.store_int mem (addr sz) ~size:sz (value ())
        | 2 -> Mem.store_word mem (addr 8) (value ())
        | 3 ->
            let len = int ((3 * page) + 1) in
            let b = if Random.State.bool rs then Bytes.make len '\000' else Bytes.make len 'x' in
            Mem.store_bytes mem (addr len) b
        | 4 ->
            let c = Cap.make ~base:(value ()) ~length:(value ()) ~perms:Perms.all in
            Mem.store_cap mem (cap_addr ()) (if Random.State.bool rs then c else Cap.clear_tag c)
        | 5 ->
            Mem.store_cap_fields mem (cap_addr ()) ~base:(lane ()) ~len:(lane ()) ~off:(lane ())
              ~pos:0 ~meta:(int 0x400) ~otype:(int 0x10000)
        | 6 -> Mem.set_tag_at mem (addr 1)
        | 7 -> Mem.poke_raw mem (addr 1) (int 256)
        | 8 -> Mem.clear_tag_at mem (addr 1)
        | _ ->
            if Random.State.bool rs then saved := Mem.snapshot_pages mem
            else
              let data, tags = !saved in
              Mem.restore_pages mem ~data ~tags
      in
      let rec go n =
        n = 0 || (step (); Mem.snapshot_pages mem = reference_pages mem && go (n - 1))
      in
      go steps)

(* -- snapshot serialization --------------------------------------------------- *)

module Snapshot = Cheri_snapshot.Snapshot

(* a run preempted here has live heap, caches, output and tag bits *)
let snap_src =
  {|
int main(void) {
  long *p = (long *)malloc(8 * 64);
  long **q = (long **)malloc(8 * 8);
  long acc = 0;
  for (long r = 0; r < 200; r++) {
    for (long i = 0; i < 64; i++) { p[i] = acc + i * 17; acc += p[i]; }
    q[r % 8] = p + (r % 64);
    if (r % 50 == 0) print_int(acc & 255);
  }
  print_int(acc & 65535);
  return 0;
}
|}

let snap_linked =
  lazy
    (let abi = Cheri_compiler.Abi.(Cheri Cheri_core.Cap_ops.V3) in
     (abi, Cheri_compiler.Codegen.compile_source abi snap_src))

(* splitmix64: all the perturbation entropy flows from the qcheck seed *)
let sm64 st =
  let open Int64 in
  st := add !st 0x9e3779b97f4a7c15L;
  let z = !st in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* The file format must be the identity on *any* machine state — not
   just states a legal run can reach. Preempt a real run (live heap
   pages, caches, tag bits), then overwrite every register, capability
   and counter with arbitrary values: capabilities with overflowing
   bounds, sealed-but-untagged combinations, 64-bit otypes — and the
   memory: a random subset of the run's data and tag pages plus random
   new ones. Both restores in the trip land on machines that already
   wrote pages the snapshot lacks (the preempted run itself, and a
   second machine run part-way and scribbled on), so every page a
   restore does not bring back must come out zero. The save/load/
   restore trip must reproduce the Snap record field for field, and
   both machines' memories must scan to exactly the snapshot's pages. *)
let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot: save/load/restore is the identity on machine state"
    ~count:20
    QCheck.(int_bound 0x3fffffff)
    (fun seed ->
      let abi, linked = Lazy.force snap_linked in
      let m = Cheri_compiler.Codegen.machine_for abi linked in
      (match Machine.run ~fuel:3_000 ~yield:true m with
      | Machine.Yielded -> ()
      | _ -> failwith "snapshot property: program shorter than the preemption point");
      let s = Machine.snapshot m in
      let st = ref (Int64.of_int seed) in
      let next () = sm64 st in
      let bit () = Int64.logand (next ()) 1L = 1L in
      let nat () = Int64.to_int (Int64.logand (next ()) 0x3fffffffL) in
      let cap () =
        Cap.of_fields_unchecked ~tag:(bit ()) ~base:(next ()) ~length:(next ())
          ~offset:(next ())
          ~perms:(Perms.of_bits_int (Int64.to_int (Int64.logand (next ()) 0xffL)))
          ~sealed:(bit ()) ~otype:(next ())
      in
      let gprs = Bytes.create (33 * 8) in
      for i = 0 to 32 do
        Bytes.set_int64_le gprs (i * 8) (next ())
      done;
      let output =
        String.init (nat () mod 200) (fun _ -> Char.chr (Int64.to_int (Int64.logand (next ()) 0xffL)))
      in
      let opt () = if bit () then Some (nat ()) else None in
      (* keep a random subset of [pages] and add up to [extra] random
         nonzero pages (a snapshot never carries an all-zero page) *)
      let pages orig ~count ~extra =
        let fresh =
          List.init (nat () mod (extra + 1)) (fun _ ->
              let idx = nat () mod count in
              let b =
                Bytes.init Machine.Snap.page_bytes (fun _ ->
                    if bit () then Char.chr (nat () land 0xff) else '\000')
              in
              Bytes.set b (nat () mod Machine.Snap.page_bytes) '\001';
              (idx, Bytes.to_string b))
        in
        List.filter (fun _ -> bit ()) orig @ fresh
        |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
      in
      let mem_size = (Machine.config m).Machine.mem_size in
      let s' =
        {
          s with
          Machine.Snap.s_gprs = Bytes.to_string gprs;
          s_caps = Array.init 32 (fun _ -> cap ());
          s_pcc = cap ();
          s_pc = nat ();
          s_cycles = nat ();
          s_instret = nat ();
          s_loads = nat ();
          s_stores = nat ();
          s_cap_loads = nat ();
          s_cap_stores = nat ();
          s_heap_allocated = Int64.logand (next ()) 0xffffffffL;
          s_allocs = nat ();
          s_frees = nat ();
          s_syscalls = nat ();
          s_alloc_fail_after = opt ();
          s_free_fail_after = opt ();
          s_output = output;
          s_data_pages =
            pages s.Machine.Snap.s_data_pages ~count:(mem_size / Machine.Snap.page_bytes) ~extra:4;
          s_tag_pages =
            pages s.Machine.Snap.s_tag_pages
              ~count:(mem_size / 32 / 8 / Machine.Snap.page_bytes)
              ~extra:2;
        }
      in
      Machine.restore m s';
      let path = Filename.temp_file "cheri-prop-snap" ".snap" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          (match Snapshot.save ~abi:(Cheri_compiler.Abi.name abi) ~path m with
          | Ok _ -> ()
          | Error e -> failwith (Snapshot.error_to_string e));
          let img =
            match Snapshot.load path with
            | Ok img -> img
            | Error e -> failwith (Snapshot.error_to_string e)
          in
          let m2 = Cheri_compiler.Codegen.machine_for abi linked in
          ignore (Machine.run ~fuel:(1 + (nat () mod 5_000)) ~yield:true m2 : Machine.outcome);
          for _ = 1 to 4 do
            Cheri_tagmem.Tagmem.store_word (Machine.mem m2) (nat () mod (mem_size - 8)) (next ())
          done;
          (match Snapshot.restore m2 ~abi:(Cheri_compiler.Abi.name abi) img with
          | Ok () -> ()
          | Error e -> failwith (Snapshot.error_to_string e));
          (* the map-driven snapshot cannot see a stale page the
             restore failed to clear; the full scan can *)
          let pages = (s'.Machine.Snap.s_data_pages, s'.Machine.Snap.s_tag_pages) in
          reference_pages (Machine.mem m) = pages
          && reference_pages (Machine.mem m2) = pages
          && Machine.snapshot m2 = s'))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_allocator_disjoint;
    QCheck_alcotest.to_alcotest prop_cache_hit_after_access;
    QCheck_alcotest.to_alcotest prop_cache_lru;
    QCheck_alcotest.to_alcotest prop_cache_stats_consistent;
    QCheck_alcotest.to_alcotest prop_flat_heap_find;
    QCheck_alcotest.to_alcotest prop_flat_heap_guard_gaps;
    QCheck_alcotest.to_alcotest prop_sealed_roundtrip;
    QCheck_alcotest.to_alcotest prop_tagmem_cap_roundtrip_random;
    QCheck_alcotest.to_alcotest prop_written_pages_invariant;
    QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
  ]

