(* Tests for the benchmark's own measurement code: exact percentiles, the
   simulated pass against [Benchmark.run], the output checks, and the
   traced run's cause split and identity with the untraced run. *)

open Pqbench_lib
module QA = Repro_workload.Queue_adapter
module Benchmark = Repro_workload.Benchmark
module Stats = Repro_util.Stats
module Machine = Repro_sim.Machine
module W = Workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A small fig7-shaped workload: big enough for contention at 8
   processors, small enough to run every backend in well under a second. *)
let small =
  {
    W.procs = 8;
    initial = 300;
    ops = 1_200;
    insert_ratio = 0.5;
    work_cycles = 100;
    key_range = 1 lsl 20;
    native_initial = 300;
    native_ops = 4_000;
  }

let seed = 11L

let sim_plan m =
  W.Mix_plan (m, W.mix_plan ~seed ~procs:m.W.procs ~initial:m.W.initial ~ops:m.W.ops m)

let native_plan m =
  W.Mix_plan
    ( m,
      W.mix_plan ~seed ~procs:W.native_domains ~initial:m.W.native_initial
        ~ops:m.W.native_ops m )

let small_edf = { W.producers = 6; workers = 3; capacity = 8; jobs = 600; native_jobs = 2_000 }

let edf_plan e =
  W.Edf_plan (e, W.edf_plan ~seed ~producers:e.W.producers ~workers:e.W.workers ~jobs:e.W.jobs)

let sim_impl b = W.sim_base ~procs:small.W.procs b

(* --- percentiles ----------------------------------------------------------- *)

(* Reference nearest rank, straight from the definition: the smallest
   sample that at least [permille/1000] of all samples do not exceed. *)
let reference samples permille =
  let n = List.length samples in
  List.filter
    (fun x -> 1000 * List.length (List.filter (fun y -> y <= x) samples) >= permille * n)
    samples
  |> List.fold_left Int.min max_int

let prop_percentile =
  QCheck.Test.make ~name:"percentile equals the nearest-rank definition" ~count:500
    QCheck.(pair (list_of_size Gen.(1 -- 300) (int_bound 100_000)) (int_range 1 1000))
    (fun (samples, permille) ->
      Pctl.of_sorted (Pctl.sorted (Array.of_list samples)) permille = reference samples permille)

let test_percentile_edges () =
  let a = Pctl.sorted (Array.init 100 (fun i -> 100 - i)) in
  check_int "p50 of 1..100" 50 (Pctl.p50 a);
  check_int "p99 of 1..100" 99 (Pctl.p99 a);
  check_int "p99 of one sample" 7 (Pctl.p99 [| 7 |]);
  check_int "no samples" 0 (Pctl.p99 [||])

(* --- the simulated pass ------------------------------------------------------ *)

let mean a = float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)

(* The pass issues [Benchmark.run]'s call sequence on the same schedule,
   so its raw samples average to [Benchmark.run]'s [Stats.mean], and its
   replayed rank error and makespan agree too — with distinct keys and with
   the repeated keys that exercise update-in-place and coalescing. *)
let test_matches_benchmark key_range () =
  let mix = { small with W.key_range } in
  let w =
    {
      Benchmark.procs = mix.W.procs;
      initial_size = mix.W.initial;
      total_ops = mix.W.ops;
      insert_ratio = mix.W.insert_ratio;
      work_cycles = mix.W.work_cycles;
      key_range;
      seed;
    }
  in
  List.iter
    (fun b ->
      let impl = sim_impl b in
      let m = Benchmark.run impl w in
      let r = Sim_pass.run impl (sim_plan mix) in
      let close what expected actual =
        Alcotest.(check (float 1e-6)) (W.label b ^ ": " ^ what) expected actual
      in
      close "insert mean" (Stats.mean m.Benchmark.insert_latency) (mean r.Sim_pass.insert_lat);
      close "delete mean" (Stats.mean m.Benchmark.delete_latency) (mean r.Sim_pass.delete_lat);
      close "rank error mean" (Stats.mean m.Benchmark.rank_error) (Stats.mean r.Sim_pass.ranks);
      check_int (W.label b ^ ": makespan") m.Benchmark.end_time r.Sim_pass.makespan;
      check_int (W.label b ^ ": no wrong outputs") 0 r.Sim_pass.failed)
    W.backends

(* --- output checks ------------------------------------------------------------- *)

(* A real instance that loses the element with id [victim]. *)
let dropping ~victim (impl : QA.impl) =
  {
    impl with
    QA.create =
      (fun () ->
        let q = impl.QA.create () in
        { q with QA.insert = (fun k v -> if v <> victim then q.QA.insert k v) });
  }

(* A real instance whose first successful delete-min is delivered twice. *)
let duplicating (impl : QA.impl) =
  {
    impl with
    QA.create =
      (fun () ->
        let q = impl.QA.create () in
        let first = ref None and replayed = ref false in
        let try_delete_min () =
          match (!first, !replayed) with
          | Some kv, false ->
            replayed := true;
            Some kv
          | _ ->
            let r = q.QA.try_delete_min () in
            if !first = None then first := r;
            r
        in
        { q with QA.try_delete_min });
  }

let failed_share ~attempted ~failed = float_of_int failed /. float_of_int attempted

let test_checks_catch_faults () =
  let sim impl = Sim_pass.run impl (sim_plan small) in
  let native impl = Native_pass.run impl (native_plan small) in
  let positive what (attempted, failed) =
    check (what ^ ": failed_op_share > 0") true (failed_share ~attempted ~failed > 0.0)
  in
  let s r = (r.Sim_pass.attempted, r.Sim_pass.failed) in
  let n r = (r.Native_pass.attempted, r.Native_pass.failed) in
  (* a multiset queue must deliver every element; an update-in-place one
     may drop a value, but never deliver one twice *)
  positive "sim lf drops" (s (sim (dropping ~victim:5 (sim_impl W.Lf))));
  positive "sim co duplicates" (s (sim (duplicating (sim_impl W.Co))));
  positive "sim skipqueue duplicates" (s (sim (duplicating (sim_impl W.Skipqueue))));
  let native_base = W.native_base ~procs:W.native_domains in
  positive "native klsm drops" (n (native (dropping ~victim:5 (native_base W.Klsm))));
  positive "native relaxed duplicates" (n (native (duplicating (native_base W.Relaxed))));
  check_int "sim skipqueue unharmed" 0 (sim (sim_impl W.Skipqueue)).Sim_pass.failed;
  check_int "native lf unharmed" 0 (native (native_base W.Lf)).Native_pass.failed

(* A lost job leaves an EDF worker parked forever: the simulator's
   [Deadlock] fails the whole pass. *)
let test_deadlock_fails_everything () =
  let impl =
    QA.Sim.bounded ~capacity:small_edf.W.capacity (dropping ~victim:3 (sim_impl W.Skipqueue))
  in
  let r = Sim_pass.run impl (edf_plan small_edf) in
  check "error reported" true (r.Sim_pass.error <> None);
  check_int "every call failed" r.Sim_pass.attempted r.Sim_pass.failed

(* --- the traced run ------------------------------------------------------------- *)

let traced_pass impl plan =
  let spans = Spans.create ~backends:1 () in
  Spans.start_backend spans 0;
  let r = Sim_pass.run ~spans impl plan in
  (spans, r)

(* Every call's causes sum to its latency with [local >= 0] (no cycle is
   charged twice); every lock-wait and condition-wait cycle the machine
   reports lands in a call (only the unspanned post-quiescence drain runs
   outside one, alone, so it never waits for a lock; it can queue behind
   its own misses); and the spans time exactly the calls the recorder
   timed. *)
let check_causes what (spans : Spans.t) (r : Sim_pass.t) =
  let latencies = ref [] and charged = Array.make 5 0 in
  for i = 0 to spans.Spans.nrows - 1 do
    let row = Spans.row spans i in
    let causes = Spans.row_causes spans i in
    let latency = row.(4) - row.(3) in
    check (what ^ ": local >= 0") true (causes.(0) >= 0);
    check_int (what ^ ": causes sum to the latency") latency (Array.fold_left ( + ) 0 causes);
    Array.iteri (fun c v -> charged.(c) <- charged.(c) + v) (Array.sub causes 1 5);
    if row.(1) <> 0 then latencies := latency :: !latencies
  done;
  let report = r.Sim_pass.report in
  check (what ^ ": queued cycles") true (charged.(2) <= report.Machine.queued_cycles);
  check_int (what ^ ": lock-wait cycles") report.Machine.lock_wait_cycles charged.(3);
  check_int (what ^ ": condition-wait cycles") report.Machine.cond_wait_cycles charged.(4);
  check (what ^ ": same latencies as the recorder") true
    (Pctl.sorted (Array.of_list !latencies) = Sim_pass.all_lat r)

let test_traced_causes () =
  List.iter
    (fun b ->
      let spans, r = traced_pass (sim_impl b) (sim_plan small) in
      check_causes (W.label b) spans r)
    W.backends;
  let spans, r =
    traced_pass
      (QA.Sim.bounded ~capacity:small_edf.W.capacity (sim_impl W.Lf))
      (edf_plan small_edf)
  in
  check_causes "bounded lf, edf" spans r;
  check "edf calls wait on conditions" true (r.Sim_pass.report.Machine.cond_wait_cycles > 0)

let test_traced_identical () =
  List.iter
    (fun b ->
      let untraced = Sim_pass.run (sim_impl b) (sim_plan small) in
      let again = Sim_pass.run (sim_impl b) (sim_plan small) in
      let _, traced = traced_pass (sim_impl b) (sim_plan small) in
      let same what a b = Alcotest.(check string) what (Sim_pass.digest a) (Sim_pass.digest b) in
      same (W.label b ^ ": same seed, same pass") untraced again;
      same (W.label b ^ ": traced = untraced") untraced traced)
    W.backends

let () =
  Alcotest.run "pqbench"
    [
      ( "percentiles",
        [
          QCheck_alcotest.to_alcotest prop_percentile;
          Alcotest.test_case "edges" `Quick test_percentile_edges;
        ] );
      ( "sim-pass",
        [
          Alcotest.test_case "matches Benchmark.run" `Quick (test_matches_benchmark (1 lsl 20));
          Alcotest.test_case "matches Benchmark.run, repeated keys" `Quick
            (test_matches_benchmark 256);
        ] );
      ( "checks",
        [
          Alcotest.test_case "dropped and duplicated elements" `Quick test_checks_catch_faults;
          Alcotest.test_case "deadlock fails the pass" `Quick test_deadlock_fails_everything;
        ] );
      ( "trace",
        [
          Alcotest.test_case "cause cycles sum to latency" `Quick test_traced_causes;
          Alcotest.test_case "traced and repeated passes identical" `Quick test_traced_identical;
        ] );
    ]
