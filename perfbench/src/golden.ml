(* The grid's golden table: for each (program, ABI) cell at the scales
   the [grid] workload runs, the simulated cycles and retired
   instructions and the MD5 of everything the program printed.

   It is the default-scale counterpart of the 21-cell golden in
   test/test_perf_equiv.ml (which pins the same programs at test
   scales). Cycles and instructions equal the committed BENCH_PR6.json,
   which the benchmark's tests check; the MD5s were captured from the
   same code. A grid cell that differs in any field fails the run. *)

type entry = { workload : string; abi : string; cycles : int; instret : int; md5 : string }

let table =
  [
    { workload = "Olden/Bisort"; abi = "MIPS"; cycles = 23079990; instret = 14558277; md5 = "1146160b1d165a8110e51bd6f3af17fc" };
    { workload = "Olden/Bisort"; abi = "CHERIv2"; cycles = 29108730; instret = 16010940; md5 = "1146160b1d165a8110e51bd6f3af17fc" };
    { workload = "Olden/Bisort"; abi = "CHERIv3"; cycles = 27656043; instret = 15042498; md5 = "1146160b1d165a8110e51bd6f3af17fc" };
    { workload = "Olden/MST"; abi = "MIPS"; cycles = 16583411; instret = 9980163; md5 = "27e0d45d236e5d1e66a5604e6a3c34dc" };
    { workload = "Olden/MST"; abi = "CHERIv2"; cycles = 21629955; instret = 11090118; md5 = "27e0d45d236e5d1e66a5604e6a3c34dc" };
    { workload = "Olden/MST"; abi = "CHERIv3"; cycles = 20519988; instret = 10350148; md5 = "27e0d45d236e5d1e66a5604e6a3c34dc" };
    { workload = "Olden/TreeAdd"; abi = "MIPS"; cycles = 8423073; instret = 4044500; md5 = "7d5672382049d9836086c21dee7f0146" };
    { workload = "Olden/TreeAdd"; abi = "CHERIv2"; cycles = 13160303; instret = 4449956; md5 = "7d5672382049d9836086c21dee7f0146" };
    { workload = "Olden/TreeAdd"; abi = "CHERIv3"; cycles = 12754841; instret = 4179652; md5 = "7d5672382049d9836086c21dee7f0146" };
    { workload = "Olden/Perimeter"; abi = "MIPS"; cycles = 51841124; instret = 19452501; md5 = "c98dc69bbce60427d11faaf5e86e6e08" };
    { workload = "Olden/Perimeter"; abi = "CHERIv2"; cycles = 63999024; instret = 20778717; md5 = "c98dc69bbce60427d11faaf5e86e6e08" };
    { workload = "Olden/Perimeter"; abi = "CHERIv3"; cycles = 62672796; instret = 19894573; md5 = "c98dc69bbce60427d11faaf5e86e6e08" };
    { workload = "Dhrystone"; abi = "MIPS"; cycles = 36711711; instret = 23353197; md5 = "34c6e1feaf7f5084f3014d5d11fb727e" };
    { workload = "Dhrystone"; abi = "CHERIv2"; cycles = 36891886; instret = 23521204; md5 = "34c6e1feaf7f5084f3014d5d11fb727e" };
    { workload = "Dhrystone"; abi = "CHERIv3"; cycles = 36759872; instret = 23401202; md5 = "34c6e1feaf7f5084f3014d5d11fb727e" };
    { workload = "tcpdump"; abi = "MIPS"; cycles = 14165436; instret = 8971968; md5 = "3cdce839b46c948ca06fd63e427b51ac" };
    { workload = "tcpdump"; abi = "CHERIv2"; cycles = 14697212; instret = 9290624; md5 = "3cdce839b46c948ca06fd63e427b51ac" };
    { workload = "tcpdump"; abi = "CHERIv3"; cycles = 14200610; instret = 9006512; md5 = "3cdce839b46c948ca06fd63e427b51ac" };
    { workload = "zlib"; abi = "MIPS"; cycles = 12782638; instret = 8181883; md5 = "c567492a6455663b792ff15e0f50aab9" };
    { workload = "zlib"; abi = "CHERIv2"; cycles = 12827978; instret = 8225237; md5 = "c567492a6455663b792ff15e0f50aab9" };
    { workload = "zlib"; abi = "CHERIv3"; cycles = 12827978; instret = 8225237; md5 = "c567492a6455663b792ff15e0f50aab9" };
  ]

let find ~workload ~abi = List.find_opt (fun e -> e.workload = workload && e.abi = abi) table
