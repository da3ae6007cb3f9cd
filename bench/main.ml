(* Bechamel benchmark suite, plus a simulator-throughput report.

   The suite opens with the simulator-throughput group: the fig7 sweep at
   bench scale timed with the scheduler run-ahead fast path on and off
   (host seconds per sweep, simulated events/s and accesses/s).
   `--sim-only` stops there; `--json PATH` writes the numbers for CI
   artifacts (BENCH_sim.json); `--sim-runs N` sets the repetitions.

   Then two bechamel groups:

   - "paper": one Test.make per table/figure of the paper (fig2..fig8 and
     the ablations).  Each test executes one scaled-down simulator run of
     that figure's workload (the full-scale regeneration is
     bin/experiments.exe); bechamel measures the wall-clock cost of the
     simulation itself.  The simulated-cycle results of the same
     configurations are `experiments all --scale 0.01 --max-procs 32`.

   - "micro": single-threaded microbenchmarks of the sequential substrate
     structures (skiplist / binary heap / pairing heap / sorted list) and
     of the simulator's primitives. *)

open Bechamel
open Toolkit

let quick_options =
  {
    Repro_workload.Figures.scale = 0.01;
    max_procs_log2 = 5;
    progress = ignore;
    jobs = 1;
  }

(* --- one Test.make per paper table/figure -------------------------------- *)

let paper_tests =
  let make_one (id, runner) =
    Test.make ~name:id
      (Staged.stage (fun () ->
           ignore (Sys.opaque_identity (runner quick_options))))
  in
  Test.make_grouped ~name:"paper" (List.map make_one Repro_workload.Figures.all)

(* --- microbenchmarks ------------------------------------------------------ *)

module Seq_skiplist = Repro_pqueue.Seq_skiplist.Make (Repro_pqueue.Key.Int)
module Seq_heap = Repro_pqueue.Seq_heap.Make (Repro_pqueue.Key.Int)
module Pairing = Repro_pqueue.Pairing_heap.Make (Repro_pqueue.Key.Int)
module Dary = Repro_pqueue.Dary_heap.Make (Repro_pqueue.Key.Int)
module Indexed = Repro_pqueue.Indexed_skiplist.Make (Repro_pqueue.Key.Int)
module Sorted = Repro_pqueue.Sorted_list.Make (Repro_pqueue.Key.Int)
module Machine = Repro_sim.Machine
module Sim = Repro_sim.Sim_runtime
module SQ = Repro_skipqueue.Skipqueue.Make (Sim) (Repro_pqueue.Key.Int)

let keys = Array.init 1024 (fun i -> (i * 7919) mod 104729)

let micro_tests =
  let skiplist_churn =
    Test.make ~name:"seq-skiplist churn 1024"
      (Staged.stage (fun () ->
           let t = Seq_skiplist.create () in
           Array.iter (fun k -> ignore (Seq_skiplist.insert t k k)) keys;
           while Seq_skiplist.delete_min t <> None do
             ()
           done))
  in
  let heap_churn =
    Test.make ~name:"seq-heap churn 1024"
      (Staged.stage (fun () ->
           let t = Seq_heap.create () in
           Array.iter (fun k -> Seq_heap.insert t k k) keys;
           while Seq_heap.delete_min t <> None do
             ()
           done))
  in
  let pairing_churn =
    Test.make ~name:"pairing-heap churn 1024"
      (Staged.stage (fun () ->
           let t = ref Pairing.empty in
           Array.iter (fun k -> t := Pairing.insert !t k k) keys;
           let rec drain () =
             match Pairing.delete_min !t with
             | None -> ()
             | Some (_, rest) ->
               t := rest;
               drain ()
           in
           drain ()))
  in
  let dary_churn =
    Test.make ~name:"4-ary-heap churn 1024"
      (Staged.stage (fun () ->
           let t = Dary.create () in
           Array.iter (fun k -> Dary.insert t k k) keys;
           while Dary.delete_min t <> None do
             ()
           done))
  in
  let indexed_churn =
    Test.make ~name:"indexed-skiplist churn 1024"
      (Staged.stage (fun () ->
           let t = Indexed.create () in
           Array.iter (fun k -> ignore (Indexed.insert t k k)) keys;
           while Indexed.delete_min t <> None do
             ()
           done))
  in
  let sorted_churn =
    Test.make ~name:"sorted-list churn 256"
      (Staged.stage (fun () ->
           let t = Sorted.create () in
           Array.iteri (fun i k -> if i < 256 then Sorted.insert t k k) keys;
           while Sorted.delete_min t <> None do
             ()
           done))
  in
  let sim_skipqueue =
    Test.make ~name:"simulated skipqueue, 8 procs x 64 ops"
      (Staged.stage (fun () ->
           ignore
             (Machine.run (fun () ->
                  let q = SQ.create () in
                  for p = 0 to 7 do
                    Machine.spawn (fun () ->
                        for i = 0 to 63 do
                          if i land 1 = 0 then
                            ignore (SQ.insert q ((i * 131) + p) i)
                          else ignore (SQ.delete_min q)
                        done)
                  done))))
  in
  let sim_multiqueue =
    (* Selected by registry name, like the CLI drivers. *)
    let module QA = Repro_workload.Queue_adapter in
    let impl = QA.find QA.Sim "MultiQueue" in
    Test.make ~name:"simulated multiqueue, 8 procs x 64 ops"
      (Staged.stage (fun () ->
           ignore
             (Machine.run (fun () ->
                  let q = impl.QA.create () in
                  for p = 0 to 7 do
                    Machine.spawn (fun () ->
                        for i = 0 to 63 do
                          if i land 1 = 0 then q.QA.insert ((i * 131) + p) i
                          else ignore (q.QA.try_delete_min ())
                        done)
                  done))))
  in
  let sim_scheduling =
    Test.make ~name:"simulator overhead, 64 procs x 100 work slices"
      (Staged.stage (fun () ->
           ignore
             (Machine.run (fun () ->
                  for _ = 1 to 64 do
                    Machine.spawn (fun () ->
                        for _ = 1 to 100 do
                          Machine.work 10
                        done)
                  done))))
  in
  Test.make_grouped ~name:"micro"
    [
      skiplist_churn;
      heap_churn;
      dary_churn;
      indexed_churn;
      pairing_churn;
      sorted_churn;
      sim_skipqueue;
      sim_multiqueue;
      sim_scheduling;
    ]

(* --- simulator throughput -------------------------------------------------- *)

(* Host-time cost of the simulator itself on the fig7 sweep at bench scale
   (1% of the ops, processors 1..32) — the configuration the scheduler
   run-ahead fast path (DESIGN.md §S16) is gated on.  Each mode runs the
   full SkipQueue + Relaxed sweep [runs] times and reports host seconds
   per sweep, simulated events and memory accesses retired per host
   second, and the host GC cost per sweep (minor words, promoted words,
   major collections) — the flat-state metric DESIGN.md §S17 tracks.
   Results are byte-identical in both modes; only the host cost moves.
   [--json PATH] appends the numbers to a run-history JSON array for CI
   artifacts, so the perf trajectory accumulates across commits. *)

let fig7_bench_workload procs =
  {
    Repro_workload.Benchmark.procs;
    initial_size = 1000;
    total_ops = 400 (* fig7's 7000 ops under the bench scale floor *);
    insert_ratio = 0.5;
    work_cycles = 100;
    key_range = 1 lsl 20;
    seed = 42L;
  }

type sweep_cost = {
  seconds : float;
  events : int;
  accesses : int;
  minor_words : float;  (** per sweep *)
  promoted_words : float;  (** per sweep *)
  major_collections : float;  (** per sweep *)
}

let measure_sweep ~runs ~fast_path =
  let module QA = Repro_workload.Queue_adapter in
  let module B = Repro_workload.Benchmark in
  let impls =
    [
      QA.find QA.Sim "SkipQueue";
      QA.find QA.Sim "Relaxed SkipQueue";
      QA.find QA.Sim "SkipQueue-lf";
      QA.find QA.Sim "SkipQueue-co";
      QA.find QA.Sim "klsm:256";
    ]
  in
  let procs = [ 1; 2; 4; 8; 16; 32 ] in
  let events = ref 0 and accesses = ref 0 in
  let gc0 = Gc.quick_stat () in
  let t0 = Sys.time () in
  for _ = 1 to runs do
    (* deterministic: every repetition retires the same counts *)
    events := 0;
    accesses := 0;
    List.iter
      (fun impl ->
        List.iter
          (fun p ->
            let m = B.run ~fast_path impl (fig7_bench_workload p) in
            events := !events + m.B.machine.Machine.events;
            accesses := !accesses + m.B.machine.Machine.accesses)
          procs)
      impls
  done;
  let dt = Sys.time () -. t0 in
  let gc1 = Gc.quick_stat () in
  let per_run x = x /. float_of_int runs in
  {
    seconds = per_run dt;
    events = !events;
    accesses = !accesses;
    minor_words = per_run (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    promoted_words = per_run (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
    major_collections =
      per_run (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  }

(* [BENCH_sim.json] is an appendable run history: a JSON array with one
   entry per bench invocation, so the perf trajectory accumulates across
   commits instead of being overwritten. *)
let append_history path entry =
  let existing =
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      String.trim s
    end
    else ""
  in
  let body =
    if existing = "" || existing = "[]" then Printf.sprintf "[\n%s\n]\n" entry
    else begin
      (* strip the closing bracket, append *)
      let upto = String.rindex existing ']' in
      let prefix = String.trim (String.sub existing 0 upto) in
      Printf.sprintf "%s,\n%s\n]\n" prefix entry
    end
  in
  let oc = open_out path in
  output_string oc body;
  close_out oc

let sim_throughput ~runs ~label ~json =
  let on = measure_sweep ~runs ~fast_path:true in
  let off = measure_sweep ~runs ~fast_path:false in
  let rate n s = float_of_int n /. s in
  print_endline "=== simulator throughput: fig7 sweep, bench scale ===";
  Printf.printf "%-22s %12s %16s %18s %16s %10s %8s\n" "scheduler" "s/sweep"
    "events/s" "accesses/s" "minor-w/sweep" "promoted" "majors";
  let line name c =
    Printf.printf "%-22s %12.4f %16.0f %18.0f %16.0f %10.0f %8.1f\n" name c.seconds
      (rate c.events c.seconds)
      (rate c.accesses c.seconds)
      c.minor_words c.promoted_words c.major_collections
  in
  line "fast path on" on;
  line "fast path off" off;
  Printf.printf "fast-path speedup: %.2fx (%d simulated events, %d accesses per sweep)\n"
    (off.seconds /. on.seconds) on.events on.accesses;
  (match json with
  | None -> ()
  | Some path ->
    let mode c =
      Printf.sprintf
        {|{ "seconds_per_sweep": %.6f, "events_per_sec": %.0f, "accesses_per_sec": %.0f, "minor_words_per_sweep": %.0f, "promoted_words_per_sweep": %.0f, "major_collections_per_sweep": %.1f }|}
        c.seconds (rate c.events c.seconds) (rate c.accesses c.seconds)
        c.minor_words c.promoted_words c.major_collections
    in
    let entry =
      Printf.sprintf
        {|  {
    "label": %S,
    "benchmark": "fig7 sweep, bench scale (1%% ops, procs 1..32, SkipQueue + Relaxed + lock-free + coalescing + klsm:256)",
    "runs_per_mode": %d,
    "simulated_events_per_sweep": %d,
    "simulated_accesses_per_sweep": %d,
    "fast_path_on": %s,
    "fast_path_off": %s,
    "fast_path_speedup": %.3f
  }|}
        label runs on.events on.accesses (mode on) (mode off)
        (off.seconds /. on.seconds)
    in
    append_history path entry;
    Printf.printf "appended run %S to %s\n" label path);
  on

(* --- driver ---------------------------------------------------------------- *)

let benchmark tests =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~stabilize:false
      ~compaction:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  Analyze.all ols Instance.monotonic_clock raw

let print_results results =
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
      rows := (name, estimate, r2) :: !rows)
    results;
  let rows = List.sort compare !rows in
  Printf.printf "%-55s %18s %8s\n" "benchmark" "ns/run" "r^2";
  Printf.printf "%s\n" (String.make 83 '-');
  List.iter
    (fun (name, est, r2) -> Printf.printf "%-55s %18.0f %8.3f\n" name est r2)
    rows

let () =
  let json = ref None in
  let sim_only = ref false in
  let runs = ref 5 in
  let label = ref "dev" in
  let max_minor_words = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | "--sim-only" :: rest ->
      sim_only := true;
      parse rest
    | "--sim-runs" :: n :: rest ->
      runs := int_of_string n;
      parse rest
    | "--label" :: l :: rest ->
      label := l;
      parse rest
    | "--max-minor-words" :: n :: rest ->
      (* CI allocation budget: fail if the fast-path-on sweep allocates
         more minor words than this (allocation counts are stable on a
         1-core container, unlike wall time). *)
      max_minor_words := Some (float_of_string n);
      parse rest
    | arg :: _ ->
      Printf.eprintf
        "unknown argument %S (known: --json PATH, --sim-only, --sim-runs N, \
         --label NAME, --max-minor-words N)\n"
        arg;
      Stdlib.exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let on = sim_throughput ~runs:!runs ~label:!label ~json:!json in
  (match !max_minor_words with
  | Some budget when on.minor_words > budget ->
    Printf.eprintf "allocation budget exceeded: %.0f minor words/sweep > %.0f\n"
      on.minor_words budget;
    Stdlib.exit 1
  | Some budget ->
    Printf.printf "allocation budget ok: %.0f minor words/sweep <= %.0f\n"
      on.minor_words budget
  | None -> ());
  if !sim_only then Stdlib.exit 0;
  print_newline ();
  print_endline "=== bechamel: host-time per benchmark ===";
  print_endline "(paper/* entries each run one scaled-down simulation of that figure)";
  let results = benchmark (Test.make_grouped ~name:"" [ paper_tests; micro_tests ]) in
  print_results results
