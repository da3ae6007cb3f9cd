(* Contention profiler: run one synthetic workload against a chosen
   structure with full tracing and print where the cycles went — the
   hottest memory locations, the lock wait table, and the machine totals.

     dune exec bin/profile.exe -- --structure heap --procs 64
     dune exec bin/profile.exe -- --structure skipqueue --procs 256 --ops 20000

   This is how the paper's §1.2 claims read off the simulator directly:
   profile the heap and the "heap" lock dominates; profile the SkipQueue
   and no single location does. *)

open Cmdliner

let run structure procs initial ops insert_ratio work =
  let module QA = Repro_workload.Queue_adapter in
  let module Benchmark = Repro_workload.Benchmark in
  (* Short CLI spellings on top of the adapter registry's names. *)
  let name =
    match String.lowercase_ascii structure with
    | "relaxed" -> "Relaxed SkipQueue"
    | "funneled" -> "SkipQueue + delete funnel"
    | other -> other
  in
  let bad_input msg =
    Printf.eprintf "%s\n" msg;
    2
  in
  match QA.parse name with
  | Error msg -> bad_input msg
  | Ok descriptor ->
  (* The probe's ceiling is the simulator's processor limit less the root;
     the reclamation ablation also spawns its collector. *)
  let ceiling = Repro_sim.Memory_model.default.Repro_sim.Memory_model.max_procs - 2 in
  if descriptor.QA.base = QA.Reclamation && procs > ceiling then
    bad_input
      (Printf.sprintf
         "--procs %d: %s spawns a collector processor beside the workers, so it runs at most %d"
         procs (QA.name descriptor) ceiling)
  else
  (* Sized for [procs], like the figures' sweeps: the MultiQueue's shards
     and the k-LSM's buffers scale with the processors they serve. *)
  let impl = QA.Sim.make ~procs descriptor in
  let summary = Repro_sim.Trace.Summary.create () in
  let workload =
    {
      Benchmark.default_workload with
      procs;
      initial_size = initial;
      total_ops = ops;
      insert_ratio;
      work_cycles = work;
    }
  in
  match Benchmark.probe ~tracer:(Repro_sim.Trace.Summary.sink summary) impl workload with
  | exception Invalid_argument msg -> bad_input msg
  | exception Repro_sim.Machine.Deadlock msg ->
    (* A blocking backend (a bounded: façade) can legitimately strand the
       whole workload: with every processor flipping a 50/50 coin, all of
       them can be inserting the moment the capacity bound is hit, and
       nobody is left to delete.  The detector's diagnostic is the
       profile result in that case. *)
    Printf.eprintf
      "deadlock: %s\n\
       (the workload parked every processor — for bounded: structures try \
       a lower --insert-ratio, fewer --ops, or more --initial headroom)\n"
      msg;
    1
  | report, latencies ->
  Printf.printf "structure: %s, %d procs, %d initial, %d ops, %.0f%% inserts\n\n"
    impl.QA.name procs initial (Repro_util.Stats.count latencies) (100.0 *. insert_ratio);
  Printf.printf "mean operation latency: %.0f cycles (min %.0f, max %.0f)\n"
    (Repro_util.Stats.mean latencies)
    (Repro_util.Stats.min_value latencies)
    (Repro_util.Stats.max_value latencies);
  Printf.printf
    "machine: %d cycles end-to-end, %d accesses (%.0f%% hits), %d queued cycles,\n\
    \         %d lock acquisitions (%d contended, %d cycles waited)\n\n"
    report.Repro_sim.Machine.end_time report.Repro_sim.Machine.accesses
    (100.0
    *. float_of_int report.Repro_sim.Machine.cache_hits
    /. float_of_int (Int.max 1 report.Repro_sim.Machine.accesses))
    report.Repro_sim.Machine.queued_cycles report.Repro_sim.Machine.lock_acquisitions
    report.Repro_sim.Machine.lock_contentions report.Repro_sim.Machine.lock_wait_cycles;
  Format.printf "%a@." Repro_sim.Trace.Summary.pp summary;
  0

let structure =
  Arg.(
    value
    & opt string "skipqueue"
    & info [ "structure"; "s" ] ~docv:"NAME"
        ~doc:
          "Structure to profile: any adapter-registry name (skipqueue, \
           relaxed, heap, funnellist, multiqueue, ...), matched case- and \
           space-insensitively.")

let procs =
  Arg.(value & opt int 64 & info [ "procs"; "p" ] ~docv:"N" ~doc:"Virtual processors.")

let initial =
  Arg.(value & opt int 1000 & info [ "initial" ] ~docv:"N" ~doc:"Initial elements.")

let ops = Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"N" ~doc:"Total operations.")

let ratio =
  Arg.(
    value & opt float 0.5 & info [ "insert-ratio" ] ~docv:"R" ~doc:"Insert probability.")

let work =
  Arg.(
    value & opt int 100
    & info [ "work" ] ~docv:"CYCLES" ~doc:"Local work between operations.")

let cmd =
  let doc = "profile where the simulated cycles go for one structure" in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ structure $ procs $ initial $ ops $ ratio $ work)

let () = Stdlib.exit (Cmd.eval' cmd)
