(* Quickstart: the SkipQueue on both runtimes.

   Run with:  dune exec examples/quickstart.exe *)

(* 1. Native runtime: real OCaml 5 domains. ------------------------------ *)
module Native = Repro_runtime.Native_runtime
module Q = Repro_skipqueue.Skipqueue.Make (Native)

let native_demo () =
  print_endline "--- native domains ---";
  let q = Q.create () in
  (* Four domains insert disjoint batches concurrently. *)
  Native.run_processors 4 (fun p ->
      for i = 0 to 24 do
        ignore (Q.insert q ((i * 4) + p) (100 * p))
      done);
  Printf.printf "inserted 100 elements from 4 domains; size = %d\n" (Q.size q);
  (match Q.delete_min q with
  | Some (k, _) -> Printf.printf "minimum = %d\n" k
  | None -> print_endline "queue unexpectedly empty");
  (* delete and find by key *)
  ignore (Q.delete q 50);
  Printf.printf "50 present after delete: %b\n" (Q.find q 50 <> None);
  match Q.check_invariants q with
  | Ok () -> print_endline "invariants hold"
  | Error e -> Printf.printf "invariant violation: %s\n" e

(* 2. Simulated runtime: 64 virtual processors, measured in cycles. ------ *)
module Machine = Repro_sim.Machine
module Sim = Repro_sim.Sim_runtime
module SQ = Repro_skipqueue.Skipqueue.Make (Sim)

let simulated_demo () =
  print_endline "--- simulated 64-processor ccNUMA ---";
  let report =
    Machine.run (fun () ->
        let q = SQ.create () in
        for p = 0 to 63 do
          Machine.spawn (fun () ->
              let rng = Repro_util.Rng.of_seed (Int64.of_int (100 + p)) in
              for i = 0 to 19 do
                if i mod 2 = 0 then
                  ignore (SQ.insert q (Repro_util.Rng.int rng 100_000) i)
                else ignore (SQ.delete_min q)
              done)
        done)
  in
  Printf.printf
    "64 procs x 20 ops: %d simulated cycles, %d memory accesses (%.0f%% cache \
     hits), %d lock acquisitions (%d contended)\n"
    report.Machine.end_time report.Machine.accesses
    (100.0 *. float_of_int report.Machine.cache_hits /. float_of_int report.Machine.accesses)
    report.Machine.lock_acquisitions report.Machine.lock_contentions

(* 3. The relaxed variant: cheaper Delete-min, weaker ordering. ----------- *)
let relaxed_demo () =
  print_endline "--- relaxed SkipQueue ---";
  let result = ref None in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = SQ.create ~mode:SQ.Relaxed () in
        ignore (SQ.insert q 10 10);
        ignore (SQ.insert q 20 20);
        result := SQ.delete_min q)
  in
  match !result with
  | Some (k, _) -> Printf.printf "relaxed delete_min returned %d\n" k
  | None -> print_endline "empty"

let () =
  native_demo ();
  simulated_demo ();
  relaxed_demo ()
