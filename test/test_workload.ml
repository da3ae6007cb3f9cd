(* Tests for the benchmark harness, the queue adapters, the figure
   machinery and the simulator's tracing. *)

module Machine = Repro_sim.Machine
module Trace = Repro_sim.Trace
module Stats = Repro_util.Stats
module Benchmark = Repro_workload.Benchmark
module Figures = Repro_workload.Figures
module Jobs = Repro_workload.Jobs
module QA = Repro_workload.Queue_adapter

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tiny_workload =
  {
    Benchmark.procs = 8;
    initial_size = 20;
    total_ops = 400;
    insert_ratio = 0.5;
    work_cycles = 100;
    key_range = 1 lsl 16;
    seed = 7L;
  }

let all_sim_impls =
  [
    QA.Sim.skipqueue ();
    QA.Sim.relaxed_skipqueue ();
    QA.Sim.hunt_heap ();
    QA.Sim.make ~procs:8 (QA.plain QA.Funnel_list);
    QA.Sim.make ~procs:8 (QA.plain QA.Multiqueue);
    QA.Sim.make ~procs:8 (QA.plain QA.Delete_funnel);
    QA.Sim.make ~procs:8 (QA.plain QA.Reclamation);
  ]

(* --- Benchmark.run ------------------------------------------------------- *)

let test_benchmark_determinism () =
  let fingerprint () =
    let m = Benchmark.run (QA.Sim.skipqueue ()) tiny_workload in
    ( Stats.mean m.Benchmark.insert_latency,
      Stats.mean m.Benchmark.delete_latency,
      Stats.count m.Benchmark.insert_latency,
      m.Benchmark.end_time,
      m.Benchmark.final_size )
  in
  check "two runs byte-identical" true (fingerprint () = fingerprint ())

let test_benchmark_seed_changes_run () =
  let run seed = Benchmark.run (QA.Sim.skipqueue ()) { tiny_workload with seed } in
  let a = run 1L and b = run 2L in
  check "different seeds differ" true
    (Stats.mean a.Benchmark.insert_latency <> Stats.mean b.Benchmark.insert_latency
    || a.Benchmark.end_time <> b.Benchmark.end_time)

let test_benchmark_op_accounting () =
  List.iter
    (fun impl ->
      let m = Benchmark.run impl tiny_workload in
      check_int
        (impl.QA.name ^ ": inserts + deletes = total_ops")
        tiny_workload.Benchmark.total_ops
        (Stats.count m.Benchmark.insert_latency + Stats.count m.Benchmark.delete_latency);
      check (impl.QA.name ^ ": final size sane") true (m.Benchmark.final_size >= 0);
      check
        (impl.QA.name ^ ": latencies positive")
        true
        (Stats.mean m.Benchmark.insert_latency > 0.0
        && Stats.mean m.Benchmark.delete_latency > 0.0))
    all_sim_impls

let test_benchmark_insert_ratio_extremes () =
  (* All inserts: final size = initial + ops, minus the rare random key
     collisions that the paper's update-in-place semantics absorb.
     All deletes: drains to 0. *)
  let all_ins =
    Benchmark.run (QA.Sim.skipqueue ())
      { tiny_workload with Benchmark.insert_ratio = 1.0 }
  in
  let expected = tiny_workload.Benchmark.initial_size + tiny_workload.Benchmark.total_ops in
  check "all inserts final size (within collision slack)" true
    (all_ins.Benchmark.final_size <= expected
    && all_ins.Benchmark.final_size >= expected - 8);
  let all_del =
    Benchmark.run (QA.Sim.skipqueue ())
      { tiny_workload with Benchmark.insert_ratio = 0.0 }
  in
  check_int "all deletes final size" 0 all_del.Benchmark.final_size

let test_benchmark_histograms () =
  let m = Benchmark.run (QA.Sim.skipqueue ()) tiny_workload in
  let module H = Repro_util.Histogram in
  check_int "insert histogram complete"
    (Stats.count m.Benchmark.insert_latency)
    (H.count m.Benchmark.insert_histogram);
  check_int "delete histogram complete"
    (Stats.count m.Benchmark.delete_latency)
    (H.count m.Benchmark.delete_histogram);
  let p50 = H.quantile m.Benchmark.delete_histogram 0.5 in
  let p99 = H.quantile m.Benchmark.delete_histogram 0.99 in
  check "p50 <= p99" true (p50 <= p99);
  check "p50 in plausible range" true
    (p50 > 10.0 && p50 < 2.0 *. Stats.mean m.Benchmark.delete_latency);
  (* pp renders with quantiles *)
  let s = Format.asprintf "%a" Benchmark.pp_measurement m in
  check "pp mentions p99" true
    (let rec has i =
       i + 3 <= String.length s && (String.sub s i 3 = "p99" || has (i + 1))
     in
     has 0)

let test_benchmark_more_procs_more_latency () =
  (* Contention must rise with processors for a shared structure. *)
  let del procs =
    let m = Benchmark.run (QA.Sim.skipqueue ()) { tiny_workload with Benchmark.procs } in
    Stats.mean m.Benchmark.delete_latency
  in
  check "2 -> 32 procs increases delete latency" true (del 32 > del 2)

let test_benchmark_rejects_bad_workload () =
  Alcotest.check_raises "procs < 1" (Invalid_argument "Benchmark.run: procs < 1")
    (fun () ->
      ignore
        (Benchmark.run (QA.Sim.skipqueue ()) { tiny_workload with Benchmark.procs = 0 }));
  Alcotest.check_raises "bad ratio"
    (Invalid_argument "Benchmark.run: insert_ratio outside [0, 1]") (fun () ->
      ignore
        (Benchmark.run (QA.Sim.skipqueue ())
           { tiny_workload with Benchmark.insert_ratio = 1.5 }))

(* --- Benchmark.probe ----------------------------------------------------- *)

(* 403 ops over 8 processors: 50 each, the remainder dropped. *)
let probe_workload = { tiny_workload with Benchmark.total_ops = 403 }

let test_probe_deterministic () =
  let fingerprint () =
    let report, latency = Benchmark.probe (QA.Sim.skipqueue ()) probe_workload in
    (report, Stats.count latency, Stats.mean latency, Stats.max_value latency)
  in
  check "two probes identical" true (fingerprint () = fingerprint ())

let test_probe_tracer_transparent () =
  List.iter
    (fun impl ->
      let summary = Trace.Summary.create () in
      let traced, _ =
        Benchmark.probe ~tracer:(Trace.Summary.sink summary) impl probe_workload
      in
      let untraced, _ = Benchmark.probe impl probe_workload in
      check (impl.QA.name ^ ": events traced") true (Trace.Summary.events summary > 0);
      Alcotest.(check string)
        (impl.QA.name ^ ": report byte-equal")
        (Marshal.to_string untraced [])
        (Marshal.to_string traced []))
    [ QA.Sim.skipqueue (); QA.Sim.make ~procs:8 (QA.plain QA.Multiqueue) ]

let test_probe_op_count () =
  List.iter
    (fun (procs, total_ops) ->
      let _, latency =
        Benchmark.probe (QA.Sim.skipqueue ())
          { probe_workload with Benchmark.procs; total_ops }
      in
      check_int
        (Printf.sprintf "%d procs, %d ops" procs total_ops)
        (procs * (total_ops / procs))
        (Stats.count latency))
    [ (8, 403); (3, 3); (511, 511) ]

let test_probe_rejects_bad_input () =
  let refused change expect =
    match Benchmark.probe (QA.Sim.skipqueue ()) (change probe_workload) with
    | _ -> Alcotest.failf "accepted: %s" expect
    | exception Invalid_argument msg ->
      Alcotest.(check string) expect ("Benchmark.probe: " ^ expect) msg
  in
  refused (fun w -> { w with Benchmark.procs = 0 }) "procs < 1";
  refused
    (fun w -> { w with Benchmark.procs = 600 })
    "procs 600 > 511 (the simulator's processor limit, less the root)";
  refused
    (fun w -> { w with Benchmark.procs = 8; total_ops = 4 })
    "total_ops 4 < procs 8 (every processor needs an operation)";
  refused (fun w -> { w with Benchmark.insert_ratio = 1.5 }) "insert_ratio outside [0, 1]"

(* --- rank-error metric ----------------------------------------------------- *)

(* [choice = shards] compares every shard, so the MultiQueue is exact
   sequentially.  The adapter builds the MultiQueue at its defaults only,
   so this configuration goes through the exported instance builder. *)
module MQ = Repro_multiqueue.Multiqueue.Make (Repro_sim.Sim_runtime) (Repro_pqueue.Key.Int)

let four_way_multiqueue =
  {
    (QA.Sim.make ~procs:1 (QA.plain QA.Multiqueue)) with
    QA.create =
      (fun () ->
        let q = MQ.create ~shards:4 ~choice:4 ~procs:1 () in
        QA.Sim.instance ~insert:(MQ.insert q)
          ~try_delete_min:(fun () -> MQ.delete_min q)
          ~stats:(fun () -> []));
  }

let test_rank_error_sequential_exact () =
  (* With one processor every structure — even the relaxed ones — returns
     the true minimum, so the oracle must read exactly zero. *)
  List.iter
    (fun impl ->
      let m = Benchmark.run impl { tiny_workload with Benchmark.procs = 1 } in
      check (impl.QA.name ^ ": deletes were measured") true
        (Stats.count m.Benchmark.rank_error > 0);
      check
        (impl.QA.name ^ ": sequential rank error is 0")
        true
        (Stats.mean m.Benchmark.rank_error = 0.0
        && Stats.max_value m.Benchmark.rank_error = 0.0))
    [
      QA.Sim.skipqueue ();
      QA.Sim.relaxed_skipqueue ();
      QA.Sim.hunt_heap ();
      four_way_multiqueue;
    ]

let test_rank_error_orders_relaxations () =
  (* Under concurrency the strict SkipQueue stays near-exact while the
     2-choice MultiQueue pays a real but bounded rank error. *)
  let mean impl =
    let m = Benchmark.run impl tiny_workload in
    Stats.mean m.Benchmark.rank_error
  in
  let strict = mean (QA.Sim.skipqueue ()) in
  let mq = mean (QA.Sim.make ~procs:8 (QA.plain QA.Multiqueue)) in
  check "strict skipqueue near-exact" true (strict < 2.0);
  check "multiqueue pays a rank error" true (mq > strict);
  check "multiqueue rank error bounded" true (mq < 200.0)

(* --- adapter registry ------------------------------------------------------ *)

let test_registry_lookup () =
  let sim_names = QA.names QA.Sim in
  check "sim registry has MultiQueue" true (List.mem "MultiQueue" sim_names);
  check "native registry has MultiQueue" true
    (List.mem "MultiQueue" (QA.names QA.Native));
  (* find is total over names, and tolerant of case and spacing *)
  check "find resolves every listed name" true
    (List.for_all (fun n -> (QA.find QA.Sim n).QA.name = n) sim_names);
  Alcotest.(check string)
    "case/space-insensitive" "Relaxed SkipQueue"
    (QA.find QA.Sim "relaxedskipqueue").QA.name;
  Alcotest.(check string)
    "lowercase with spaces" "SkipQueue + reclamation"
    (QA.find QA.Sim "skipqueue +reclamation").QA.name;
  (match QA.find QA.Sim "nosuchqueue" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    check "miss lists the known names" true
      (let rec has i =
         i + 9 <= String.length msg
         && (String.sub msg i 9 = "SkipQueue" || has (i + 1))
       in
       has 0));
  (* duplicate-key semantics recorded per implementation *)
  check "skipqueue dedups" true (QA.find QA.Sim "skipqueue").QA.dedups;
  check "multiqueue keeps duplicates" false (QA.find QA.Sim "multiqueue").QA.dedups

(* The lookup-miss message must list every known name, sorted, so a user
   can find the spelling they wanted without grepping the source. *)
let test_registry_miss_message () =
  match QA.find QA.Sim "nosuchqueue" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    let listed =
      match String.index_opt msg '(' with
      | None -> Alcotest.fail "miss message has no (known: ...) section"
      | Some i ->
        let section = String.sub msg (i + 1) (String.length msg - i - 2) in
        let prefix = "known: " in
        check "section is labelled" true
          (String.length section > String.length prefix
          && String.sub section 0 (String.length prefix) = prefix);
        String.split_on_char ','
          (String.sub section (String.length prefix)
             (String.length section - String.length prefix))
        |> List.map String.trim
    in
    Alcotest.(check (list string))
      "every name, sorted" (List.sort String.compare (QA.names QA.Sim)) listed;
    check "claimed sorted order" true (listed = List.sort String.compare listed)

(* Every implementation declares the correctness contract the history
   checkers hold it to. *)
let test_registry_specs () =
  let spec name = (QA.find QA.Sim name).QA.spec in
  check "SkipQueue is Definition-1 strict" true (spec "skipqueue" = QA.Linearizable);
  check "relaxed variant declares §5.4" true (spec "relaxedskipqueue" = QA.Relaxed);
  check "heap is quiescent only" true (spec "heap" = QA.Quiescent);
  check "multiqueue is rank-bounded" true (spec "multiqueue" = QA.Rank_bounded);
  check "funnel list is strict" true (spec "funnellist" = QA.Linearizable);
  check "ablations inherit the skipqueue contract" true
    (spec "skipqueue + delete funnel" = QA.Linearizable
    && spec "skipqueue + reclamation" = QA.Linearizable)

let test_registry_instances_work () =
  (* Every sim registry entry must actually run a few operations. *)
  List.iter
    (fun impl ->
      let ok = ref false in
      let (_ : Machine.report) =
        Machine.run (fun () ->
            let q = impl.QA.create () in
            q.QA.insert 3 30;
            q.QA.insert 1 10;
            q.QA.insert 2 20;
            (match q.QA.try_delete_min () with
            | Some (k, _) -> ok := k >= 1 && k <= 3
            | None -> ok := false);
            ignore (q.QA.stats ()))
      in
      check (impl.QA.name ^ " runs") true !ok)
    (QA.all QA.Sim)

let test_instance_stats_keys () =
  (* The documented common core of [instance.stats]: every adapter reports
     "ops", "lock_acquisitions" and "lock_try_failures"; the bounded
     façade prepends its own "parks" / "wakes" / "backpressure_stalls". *)
  let keys_of impl =
    let keys = ref [] in
    let (_ : Machine.report) =
      Machine.run (fun () ->
          let q = impl.QA.create () in
          q.QA.insert_wait 2 20;
          q.QA.insert 1 10;
          (match q.QA.delete_min_wait () with
          | k, _ -> check (impl.QA.name ^ " pops a min") true (k = 1 || k = 2));
          keys := List.map fst (q.QA.stats ()))
    in
    !keys
  in
  let core = [ "ops"; "lock_acquisitions"; "lock_try_failures" ] in
  List.iter
    (fun impl ->
      let keys = keys_of impl in
      List.iter
        (fun k -> check (impl.QA.name ^ " reports " ^ k) true (List.mem k keys))
        (core
        @
        if String.length impl.QA.name >= 8 && String.sub impl.QA.name 0 8 = "bounded:"
        then [ "parks"; "wakes"; "backpressure_stalls" ]
        else []))
    (QA.all QA.Sim);
  check "registry carries bounded entries" true
    (List.exists (fun i -> i.QA.name = "bounded:SkipQueue") (QA.all QA.Sim))

(* The registry, pinned: listing order is part of the contract (the check
   sweep and the native sweep print in it). *)
let sim_names =
  [
    "SkipQueue"; "Relaxed SkipQueue"; "SkipQueue-lf"; "SkipQueue-co"; "SkipQueue-co-dedup";
    "Relaxed SkipQueue-co"; "SkipQueue-elim"; "Relaxed SkipQueue-elim"; "SkipQueue-co-elim";
    "Heap"; "FunnelList"; "MultiQueue"; "klsm:256"; "SkipQueue + delete funnel";
    "SkipQueue + reclamation"; "BinQueue(65536)"; "bounded:SkipQueue";
    "bounded:Relaxed SkipQueue"; "bounded:SkipQueue-lf"; "bounded:SkipQueue-co"; "bounded:Heap";
    "bounded:MultiQueue";
  ]

let native_names =
  [
    "SkipQueue"; "Relaxed SkipQueue"; "SkipQueue-lf"; "SkipQueue-co"; "SkipQueue-co-dedup";
    "Relaxed SkipQueue-co"; "SkipQueue-elim"; "Relaxed SkipQueue-elim"; "SkipQueue-co-elim";
    "Heap"; "FunnelList"; "MultiQueue"; "klsm:256"; "bounded:SkipQueue";
    "bounded:Relaxed SkipQueue"; "bounded:SkipQueue-lf"; "bounded:SkipQueue-co"; "bounded:Heap";
    "bounded:MultiQueue";
  ]

let test_registry_names_pinned () =
  Alcotest.(check (list string)) "simulator names" sim_names (QA.names QA.Sim);
  Alcotest.(check (list string)) "native names" native_names (QA.names QA.Native)

(* Every registry name parses, prints back byte-identical and resolves to
   the contract each implementation has always declared; a bounded: entry
   keeps its inner one. *)
let contracts =
  QA.
    [
      ("SkipQueue", Linearizable, true); ("Relaxed SkipQueue", Relaxed, true);
      ("SkipQueue-lf", Linearizable, false); ("SkipQueue-co", Linearizable, false);
      ("SkipQueue-co-dedup", Linearizable, true); ("Relaxed SkipQueue-co", Relaxed, false);
      ("SkipQueue-elim", Linearizable, true); ("Relaxed SkipQueue-elim", Relaxed, true);
      ("SkipQueue-co-elim", Linearizable, false); ("Heap", Quiescent, false);
      ("FunnelList", Linearizable, false); ("MultiQueue", Rank_bounded, false);
      ("klsm:256", Rank_bounded, false); ("SkipQueue + delete funnel", Linearizable, true);
      ("SkipQueue + reclamation", Linearizable, true); ("BinQueue(65536)", Linearizable, false);
    ]

let test_registry_round_trip () =
  List.iter
    (fun backend ->
      List.iter
        (fun name ->
          (match QA.parse name with
          | Ok d -> Alcotest.(check string) "prints back" name (QA.name d)
          | Error msg -> Alcotest.fail msg);
          let inner =
            if String.starts_with ~prefix:"bounded:" name then
              String.sub name 8 (String.length name - 8)
            else name
          in
          let _, spec, dedups = List.find (fun (n, _, _) -> n = inner) contracts in
          let impl = QA.find backend name in
          Alcotest.(check string) "resolves by name" name impl.QA.name;
          check (name ^ " spec") true (impl.QA.spec = spec);
          check (name ^ " dedups") dedups impl.QA.dedups;
          check (name ^ " rank bound") true
            (impl.QA.rank_bound = if inner = "klsm:256" then Some 256 else None))
        (QA.names backend))
    [ QA.Sim; QA.Native ]

(* Every base under every modifier combination: the valid ones run a 4-op
   smoke on the simulator (and natively unless simulator-only); the rest
   are refused at construction. *)
let test_every_composition_runs () =
  let smoke (q : QA.instance) =
    q.QA.insert 3 30;
    q.QA.insert 1 10;
    q.QA.insert 2 20;
    match q.QA.try_delete_min () with Some (k, _) -> k >= 1 && k <= 3 | None -> false
  in
  let built = ref 0 and native = ref 0 in
  List.iter
    (fun base ->
      List.iter
        (fun (relaxed, elim, bounded) ->
          let d = { QA.base; relaxed; elim; bounded } in
          match QA.Sim.make ~procs:4 d with
          | exception Invalid_argument _ -> ()
          | impl -> (
            incr built;
            let ok = ref false in
            let (_ : Machine.report) = Machine.run (fun () -> ok := smoke (impl.QA.create ())) in
            check (impl.QA.name ^ " runs (sim)") true !ok;
            match QA.Native.make ~procs:4 d with
            | exception Invalid_argument _ -> ()
            | impl ->
              incr native;
              check (impl.QA.name ^ " runs (native)") true (smoke (impl.QA.create ()))))
        [
          (false, false, None); (true, false, None); (false, true, None); (true, true, None);
          (false, false, Some 8); (true, false, Some 8); (false, true, Some 8); (true, true, Some 8);
        ])
    QA.
      [
        Skipqueue; Lf; Co; Co_dedup; Heap; Funnel_list; Multiqueue; Klsm 1; Klsm 64; Bin 256;
        Delete_funnel; Reclamation;
      ];
  (* SkipQueue 4 flavors, SkipQueue-co 3, eight single-flavor bases, all
     twice (bare and bounded), plus the two unboundable ablations. *)
  check_int "valid compositions" 32 !built;
  check_int "native-eligible compositions" 28 !native

let test_registry_bad_spellings () =
  let refused ~backend input expect =
    match QA.find backend input with
    | _ -> Alcotest.failf "%S resolved" input
    | exception Invalid_argument msg -> Alcotest.(check string) input expect msg
  in
  List.iter
    (fun (input, expect) -> refused ~backend:QA.Sim input ("Queue_adapter.find: " ^ expect))
    [
      ("klsm:0", {|k-LSM rank bound must be a positive integer, got 0 in "klsm:0"|});
      ( "klsm:abc",
        {|malformed k-LSM rank bound "abc" in "klsm:abc" (expected klsm:<k> with k a positive integer)|}
      );
      ( "BinQueue(4611686018427387903)",
        {|bin-queue range must be at most 1048576 (2^20, the largest key range a workload draws), got 4611686018427387903 in "BinQueue(4611686018427387903)"|}
      );
      ( "BinQueue(100000000000)",
        {|bin-queue range must be at most 1048576 (2^20, the largest key range a workload draws), got 100000000000 in "BinQueue(100000000000)"|}
      );
      ("BinQueue(0)", {|bin-queue range must be a positive integer, got 0 in "BinQueue(0)"|});
      ("Relaxed Heap", {|Heap has no relaxed flavor in "Relaxed Heap"|});
      ("SkipQueue-lf-elim", {|SkipQueue-lf has no elimination front end in "SkipQueue-lf-elim"|});
      ( "Relaxed SkipQueue-co-elim",
        {|Relaxed SkipQueue-co has no elimination front end in "Relaxed SkipQueue-co-elim"|} );
      ("bounded:bounded:SkipQueue", {|bounded: cannot be nested in "bounded:bounded:SkipQueue"|});
      ( "bounded:SkipQueue + reclamation",
        {|SkipQueue + reclamation is an ablation and cannot be bounded in "bounded:SkipQueue + reclamation"|}
      );
      ( "nosuchqueue",
        Printf.sprintf {|unknown implementation "nosuchqueue" (known: %s)|}
          (String.concat ", " (List.sort String.compare sim_names)) );
    ];
  refused ~backend:QA.Native "BinQueue(65536)"
    "Queue_adapter.make: BinQueue(65536) is simulator-only"

(* --- figures machinery ----------------------------------------------------- *)

let tiny_options =
  { Figures.scale = 0.005; max_procs_log2 = 2; progress = ignore; jobs = 1 }

(* Every experiment once at tiny scale, shared by the cases inspecting them. *)
let tiny_results =
  lazy (List.map (fun (id, runner) -> (id, runner tiny_options)) Figures.all)

let test_every_figure_runs () =
  List.iter
    (fun (id, result) ->
      check (id ^ " has a body") true (String.length result.Figures.body > 0);
      check (id ^ " has indicators") true (result.Figures.indicators <> []);
      let rendered = Figures.render result in
      check (id ^ " renders") true (String.length rendered > String.length result.Figures.body))
    (Lazy.force tiny_results)

(* A CSV row is keyed by its series name alone, so two series of one
   experiment sharing a name (the SkipQueue on two workloads) could not
   be told apart. *)
let test_figure_series_distinct () =
  List.iter
    (fun (id, result) ->
      let names = List.sort String.compare (List.map fst result.Figures.data) in
      Alcotest.(check (list string))
        (id ^ " series names distinct")
        (List.sort_uniq String.compare names)
        names)
    (Lazy.force tiny_results)

let figure id options = Figures.render (List.assoc id Figures.all options)

let test_figure_determinism () =
  let run () = figure "fig6" tiny_options in
  Alcotest.(check string) "fig6 deterministic" (run ()) (run ())

(* DESIGN.md §S16: sweep points are independent simulations, so fanning
   them out over domains must leave the rendered figure byte-identical. *)
let test_figure_jobs_identity () =
  let run jobs = figure "fig7" { tiny_options with Figures.jobs } in
  Alcotest.(check string) "fig7 jobs=4 equals jobs=1" (run 1) (run 4)

(* Jobs.map itself: order, identity with List.map, error propagation. *)
let test_jobs_map () =
  let xs = List.init 37 Fun.id in
  let f x = (x * x) - x in
  Alcotest.(check (list int)) "ordered results" (List.map f xs) (Jobs.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "inline path" (List.map f xs) (Jobs.map ~jobs:1 f xs);
  Alcotest.(check (list int)) "empty" [] (Jobs.map ~jobs:4 f []);
  match Jobs.map ~jobs:3 (fun x -> if x >= 5 then failwith (string_of_int x) else x) xs with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
    (* the lowest-index failure wins, as a sequential run would report *)
    Alcotest.(check string) "first error re-raised" "5" msg

(* --- Benchmark.native ------------------------------------------------------ *)

let test_native_bench_runs () =
  let m =
    Benchmark.native (QA.Native.skipqueue ())
      { tiny_workload with Benchmark.procs = 2 }
  in
  check_int "op accounting"
    tiny_workload.Benchmark.total_ops
    (Stats.count m.Benchmark.insert_latency_ns
    + Stats.count m.Benchmark.delete_latency_ns);
  check "throughput positive" true (m.Benchmark.throughput_ops_per_sec > 0.0);
  check "wall time positive" true (m.Benchmark.wall_ns > 0.0)

(* Both runtimes run one call loop on one set of streams: each processor
   flips the same coins, so the insert/delete split is identical. *)
let test_native_same_calls_as_run () =
  let w = { tiny_workload with Benchmark.procs = 2 } in
  let sim = Benchmark.run (QA.Sim.skipqueue ()) w in
  let native = Benchmark.native (QA.Native.skipqueue ()) w in
  check_int "inserts"
    (Stats.count sim.Benchmark.insert_latency)
    (Stats.count native.Benchmark.insert_latency_ns);
  check_int "deletes"
    (Stats.count sim.Benchmark.delete_latency)
    (Stats.count native.Benchmark.delete_latency_ns)

let test_native_rejects_bad_workload () =
  Alcotest.check_raises "bad ratio"
    (Invalid_argument "Benchmark.native: insert_ratio outside [0, 1]") (fun () ->
      ignore
        (Benchmark.native (QA.Native.skipqueue ())
           { tiny_workload with Benchmark.procs = 2; insert_ratio = 1.5 }))

(* --- tracing ------------------------------------------------------------------ *)

let test_trace_summary () =
  let summary = Trace.Summary.create () in
  let report =
    Machine.run ~tracer:(Trace.Summary.sink summary) (fun () ->
        let lock = Machine.lock_create ~name:"hot" () in
        let c = Repro_sim.Sim_runtime.shared 0 in
        for _ = 1 to 8 do
          Machine.spawn (fun () ->
              for _ = 1 to 5 do
                Machine.lock_acquire lock;
                ignore (Repro_sim.Sim_runtime.swap c 1);
                Machine.work 50;
                Machine.lock_release lock
              done)
        done)
  in
  check "events recorded" true (Trace.Summary.events summary > 0);
  (* Lock profile: 40 acquisitions of "hot", some parked. *)
  let profile = Trace.Summary.lock_profile summary in
  let hot = List.find (fun (name, _, _, _) -> name = "hot") profile in
  let _, acqs, parks, waited = hot in
  check_int "all acquisitions traced" 40 acqs;
  check "some parked" true (parks > 0);
  check "waited cycles recorded" true (waited > 0);
  check_int "waited matches machine report" report.Machine.lock_wait_cycles waited;
  (* The swapped cell must appear among the hottest locations. *)
  check "a hot location found" true (Trace.Summary.hottest_locations summary ~n:3 <> []);
  (* Every spawned processor has a span and all exited. *)
  let spans = Trace.Summary.processor_spans summary in
  check "spans complete" true
    (List.length spans >= 8
    && List.for_all (fun (_, _, exited) -> exited >= 0) spans)

let test_trace_event_stream_consistent () =
  (* Acquire/release alternate per lock; access finish >= start. *)
  let violations = ref 0 in
  let held = Hashtbl.create 8 in
  let sink = function
    | Trace.Acquired { lock; _ } | Trace.Woken { lock; _ } ->
      if Hashtbl.mem held lock then incr violations else Hashtbl.add held lock ()
    | Trace.Released { lock; _ } ->
      if Hashtbl.mem held lock then Hashtbl.remove held lock else incr violations
    | Trace.Accessed { start; finish; _ } -> if finish < start then incr violations
    | Trace.Spawned _ | Trace.Exited _ | Trace.Parked _
    | Trace.Cond_parked _ | Trace.Cond_woken _ -> ()
  in
  let (_ : Machine.report) =
    Machine.run ~tracer:sink (fun () ->
        let lock = Machine.lock_create ~name:"l" () in
        for _ = 1 to 6 do
          Machine.spawn (fun () ->
              for _ = 1 to 10 do
                Machine.lock_acquire lock;
                Machine.work 10;
                Machine.lock_release lock
              done)
        done)
  in
  check_int "no protocol violations" 0 !violations

let test_trace_pp_event_coverage () =
  (* every event constructor renders *)
  let events =
    [
      Trace.Spawned { parent = 0; child = 1; at = 5 };
      Trace.Exited { proc = 1; at = 9 };
      Trace.Accessed
        {
          proc = 0;
          location = 3;
          kind = Repro_sim.Memory_model.Swap;
          start = 1;
          finish = 4;
          hit = false;
          queued = 2;
        };
      Trace.Acquired { proc = 0; lock = "l"; at = 2 };
      Trace.Released { proc = 0; lock = "l"; at = 3 };
      Trace.Parked { proc = 2; lock = "l"; at = 4 };
      Trace.Woken { proc = 2; lock = "l"; at = 8; waited = 4 };
      Trace.Cond_parked { proc = 2; cond = "cv"; lock = "l"; at = 10 };
      Trace.Cond_woken { proc = 2; cond = "cv"; lock = "l"; at = 15; waited = 5 };
    ]
  in
  List.iter
    (fun e ->
      let s = Format.asprintf "%a" Trace.pp_event e in
      check "renders non-empty" true (String.length s > 0))
    events

let test_trace_pp_smoke () =
  let summary = Trace.Summary.create () in
  let (_ : Machine.report) =
    Machine.run ~tracer:(Trace.Summary.sink summary) (fun () ->
        let c = Repro_sim.Sim_runtime.shared 0 in
        Repro_sim.Sim_runtime.write c 1)
  in
  let s = Format.asprintf "%a" Trace.Summary.pp summary in
  check "pp renders" true (String.length s > 0)

let () =
  Alcotest.run "workload"
    [
      ( "benchmark",
        [
          Alcotest.test_case "determinism" `Quick test_benchmark_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_benchmark_seed_changes_run;
          Alcotest.test_case "op accounting (all impls)" `Quick test_benchmark_op_accounting;
          Alcotest.test_case "ratio extremes" `Quick test_benchmark_insert_ratio_extremes;
          Alcotest.test_case "histograms and quantiles" `Quick test_benchmark_histograms;
          Alcotest.test_case "latency rises with procs" `Quick
            test_benchmark_more_procs_more_latency;
          Alcotest.test_case "rejects bad workload" `Quick test_benchmark_rejects_bad_workload;
        ] );
      ( "probe",
        [
          Alcotest.test_case "deterministic" `Quick test_probe_deterministic;
          Alcotest.test_case "tracer leaves the report unchanged" `Quick
            test_probe_tracer_transparent;
          Alcotest.test_case "procs x floor(ops/procs) operations" `Quick test_probe_op_count;
          Alcotest.test_case "rejects bad input exactly" `Quick test_probe_rejects_bad_input;
        ] );
      ( "rank-error",
        [
          Alcotest.test_case "sequential runs are exact" `Quick
            test_rank_error_sequential_exact;
          Alcotest.test_case "orders the relaxations" `Quick
            test_rank_error_orders_relaxations;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup" `Quick test_registry_lookup;
          Alcotest.test_case "miss message sorted" `Quick test_registry_miss_message;
          Alcotest.test_case "specs declared" `Quick test_registry_specs;
          Alcotest.test_case "every entry runs" `Quick test_registry_instances_work;
          Alcotest.test_case "core stats keys" `Quick test_instance_stats_keys;
          Alcotest.test_case "names pinned" `Quick test_registry_names_pinned;
          Alcotest.test_case "names round-trip" `Quick test_registry_round_trip;
          Alcotest.test_case "every composition runs" `Quick test_every_composition_runs;
          Alcotest.test_case "bad spellings report exactly" `Quick test_registry_bad_spellings;
        ] );
      ( "figures",
        [
          Alcotest.test_case "every figure runs" `Slow test_every_figure_runs;
          Alcotest.test_case "series names distinct" `Slow test_figure_series_distinct;
          Alcotest.test_case "figure determinism" `Quick test_figure_determinism;
          Alcotest.test_case "parallel figure identical" `Quick test_figure_jobs_identity;
          Alcotest.test_case "jobs map semantics" `Quick test_jobs_map;
        ] );
      ( "native-bench",
        [
          Alcotest.test_case "runs and accounts" `Quick test_native_bench_runs;
          Alcotest.test_case "same calls as the simulator" `Quick
            test_native_same_calls_as_run;
          Alcotest.test_case "rejects bad workload" `Quick test_native_rejects_bad_workload;
        ] );
      ( "trace",
        [
          Alcotest.test_case "summary aggregates" `Quick test_trace_summary;
          Alcotest.test_case "event stream consistent" `Quick
            test_trace_event_stream_consistent;
          Alcotest.test_case "pp_event coverage" `Quick test_trace_pp_event_coverage;
          Alcotest.test_case "pp smoke" `Quick test_trace_pp_smoke;
        ] );
    ]
