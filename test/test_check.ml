(* Tests for lib/check: the checkers on hand-built histories (each check's
   pass, fail, and skip paths), harness determinism and replayability, a
   clean mini-sweep over real backends, and every planted mutant being
   caught with a replayable seed. *)

module Check = Repro_check.Checkers
module Harness = Repro_check.Harness
module History = Repro_check.History
module Broken = Repro_check.Broken
module QA = Repro_workload.Queue_adapter
module O = Check.O

let check = Alcotest.(check bool)

(* --- history construction helpers --------------------------------------- *)

let ins ?(proc = 0) ~at ?(dur = 1) key id =
  { O.proc; op = O.Insert { key; id }; invoked = at; responded = at + dur }

let del ?(proc = 0) ~at ?(dur = 1) result =
  { O.proc; op = O.Delete_min { result }; invoked = at; responded = at + dur }

let hist ?(dedups = false) ?(spec = QA.Linearizable) ?(drained = []) ?capacity ?(spans = [])
    events =
  { Check.impl = "test"; dedups; spec; seed = 0L; events; drained; capacity; spans }

let span ?(parks = 1) ~parked_at ~woken_at event =
  { History.event; parks; parked_at; woken_at }

let is_pass = function Check.Pass -> true | Check.Fail _ | Check.Skip _ -> false
let is_fail = function Check.Fail _ -> true | Check.Pass | Check.Skip _ -> false
let is_skip = function Check.Skip _ -> true | Check.Pass | Check.Fail _ -> false

(* --- sequential replay --------------------------------------------------- *)

let test_sequential_replay () =
  let good =
    hist
      [
        ins ~at:0 5 1;
        ins ~at:2 3 2;
        del ~at:4 (Some (3, 2));
        del ~at:6 (Some (5, 1));
        del ~at:8 None;
      ]
  in
  check "in-order replay passes" true (is_pass (Check.sequential_replay good));
  let wrong_min =
    hist [ ins ~at:0 5 1; ins ~at:2 3 2; del ~at:4 (Some (5, 1)) ]
  in
  check "non-minimum fails" true (is_fail (Check.sequential_replay wrong_min));
  let premature_empty = hist [ ins ~at:0 5 1; del ~at:2 None ] in
  check "EMPTY with live element fails" true (is_fail (Check.sequential_replay premature_empty));
  let concurrent = hist [ ins ~at:0 ~dur:10 5 1; del ~proc:1 ~at:4 (Some (5, 1)) ] in
  check "overlapping ops skip" true (is_skip (Check.sequential_replay concurrent))

let test_sequential_replay_dedup () =
  (* update-in-place: the second insert of key 5 replaces id 1 with id 2 *)
  let update = [ ins ~at:0 5 1; ins ~at:2 5 2 ] in
  check "dedup returns the updating id" true
    (is_pass (Check.sequential_replay (hist ~dedups:true (update @ [ del ~at:4 (Some (5, 2)) ]))));
  check "dedup overwrote the first id" true
    (is_fail (Check.sequential_replay (hist ~dedups:true (update @ [ del ~at:4 (Some (5, 1)) ]))));
  check "without dedup both ids live" true
    (is_pass (Check.sequential_replay (hist (update @ [ del ~at:4 (Some (5, 1)) ]))))

(* --- quiescent consistency ----------------------------------------------- *)

let test_quiescent () =
  (* Key 2 fully inserted, a quiescent point, then a delete returns 9. *)
  let bad =
    hist
      [ ins ~at:0 2 1; ins ~at:2 9 2; del ~proc:1 ~at:10 (Some (9, 2)) ]
      ~drained:[ (2, 1) ]
  in
  check "skipping a settled smaller key fails" true (is_fail (Check.quiescent bad));
  let good = hist [ ins ~at:0 2 1; del ~proc:1 ~at:10 (Some (2, 1)) ] in
  check "taking the settled minimum passes" true (is_pass (Check.quiescent good));
  (* Same busy period: insert of 1 overlaps the delete, reordering is
     allowed, so returning 9 is quiescently fine. *)
  let same_period =
    hist [ ins ~at:0 9 1; ins ~proc:2 ~at:10 ~dur:10 1 2; del ~proc:1 ~at:12 ~dur:2 (Some (9, 1)) ]
  in
  check "reordering within one busy period passes" true (is_pass (Check.quiescent same_period))

let test_quiescent_transit_tolerant () =
  (* Two overlapping deletes: one may be transporting the missing element,
     so both are exempt. *)
  let h =
    hist
      [
        ins ~at:0 2 1;
        ins ~at:2 9 2;
        del ~proc:1 ~at:10 ~dur:10 (Some (9, 2));
        del ~proc:2 ~at:12 ~dur:10 None;
      ]
      ~drained:[ (2, 1) ]
  in
  check "transit-tolerant exempts overlapped deletes" true (is_pass (Check.quiescent h));
  (* A lone delete (no overlapping delete) gets no exemption. *)
  let lone =
    hist [ ins ~at:0 2 1; ins ~at:2 9 2; del ~proc:1 ~at:10 (Some (9, 2)) ] ~drained:[ (2, 1) ]
  in
  check "lone delete still checked" true (is_fail (Check.quiescent lone))

(* --- conservation and drain order ---------------------------------------- *)

let test_conservation () =
  let events = [ ins ~at:0 5 1; ins ~at:2 1 2 ] in
  check "balanced passes" true
    (is_pass (Check.conservation (hist events ~drained:[ (1, 2); (5, 1) ])));
  check "lost element fails" true
    (is_fail (Check.conservation (hist events ~drained:[ (1, 2) ])));
  (* rank-bounded backends drain shard minima, not sorted order *)
  let unsorted = [ (5, 1); (1, 2) ] in
  check "unsorted drain fails for linearizable" true
    (is_fail (Check.conservation (hist events ~drained:unsorted)));
  check "unsorted drain ok for rank-bounded" true
    (is_pass (Check.conservation (hist ~spec:QA.Rank_bounded events ~drained:unsorted)))

(* --- strict checks -------------------------------------------------------- *)

let test_strict_and_relaxed () =
  let bad = hist [ ins ~at:0 1 1; ins ~at:2 9 2; del ~proc:1 ~at:10 (Some (9, 2)) ] in
  check "returning 9 over settled 1 fails" true (is_fail (Check.strict bad));
  (* d may return an element smaller than the settled minimum if its
     insert overlaps: the §5.4 allowance is Definition 1's optional
     overlapping insert *)
  let concurrent_smaller =
    hist
      [ ins ~at:0 9 1; ins ~proc:2 ~at:10 ~dur:10 1 2; del ~proc:1 ~at:12 ~dur:2 (Some (1, 2)) ]
  in
  check "concurrent smaller insert ok" true (is_pass (Check.strict concurrent_smaller))

let test_strict_definition1 () =
  (* Order-dependent but consistent: d2 (returning 1) serializes first. *)
  let consistent =
    [
      ins ~at:0 1 1;
      ins ~at:0 ~proc:3 2 2;
      del ~proc:1 ~at:10 ~dur:10 (Some (2, 2));
      del ~proc:2 ~at:11 ~dur:10 (Some (1, 1));
    ]
  in
  check "overlapping deletes with a valid order pass" true
    (is_pass (Check.strict (hist consistent)));
  (* No order works: whichever delete goes first sees {1, 2}, so EMPTY is
     wrong and so is taking 2 before 1. *)
  let inconsistent =
    [
      ins ~at:0 1 1;
      ins ~at:0 ~proc:3 2 2;
      del ~proc:1 ~at:10 ~dur:10 (Some (2, 2));
      del ~proc:2 ~at:11 ~dur:10 None;
    ]
  in
  check "no Definition-1 serialization fails" true
    (is_fail (Check.strict (hist inconsistent ~drained:[ (1, 1) ])))

(* Ten deletes in one real-time window, wider than a factorial search
   affords, hiding a cycle no per-delete condition sees.  A [10, 20] took
   3 over 2, excused if B [15, 40] took 2 first; B took 2 over 1 (settled
   at 12, after A began), excused if C [30, 50] took 1 first; but A
   responded before C was invoked.  Seven padding deletes overlap all
   three and return elements inserted concurrently with every delete.
   A per-delete §5.4 check passes each delete alone, so the [Relaxed]
   suite must fail it too. *)
let test_strict_wide_window () =
  let settled = [ ins ~at:0 2 2; ins ~at:2 3 3; ins ~at:11 1 1 ] in
  let cycle =
    [
      del ~proc:1 ~at:10 ~dur:10 (Some (3, 3));
      del ~proc:2 ~at:15 ~dur:25 (Some (2, 2));
      del ~proc:3 ~at:30 ~dur:20 (Some (1, 1));
    ]
  in
  let padding =
    List.concat
      (List.init 7 (fun i ->
           [
             ins ~proc:(20 + i) ~at:9 ~dur:51 (100 + i) (100 + i);
             del ~proc:(10 + i) ~at:10 ~dur:40 (Some (100 + i, 100 + i));
           ]))
  in
  let h = hist (settled @ cycle @ padding) in
  check "the relaxed suite fails it" true
    (List.exists
       (fun (_, v) -> is_fail v)
       (Check.check_all ~rank_bound:None { h with Check.spec = QA.Relaxed }));
  match Check.strict h with
  | Check.Fail msg ->
    Alcotest.(check string) "names the stuck delete"
      "no Definition-1 serialization: Delete-min (proc 1, [10, 20]) returned 3#3 while \
       smaller 2#2 was available"
      msg
  | Check.Pass | Check.Skip _ -> Alcotest.fail "the cycle has no serialization"

let test_rank_envelope () =
  (* deletes in exactly reverse order: ranks 4,3,2,1,0 *)
  let events =
    List.init 5 (fun i -> ins ~at:i (i + 1) (i + 1))
    @ List.init 5 (fun i -> del ~at:(10 + i) (Some (5 - i, 5 - i)))
  in
  let h = hist ~spec:QA.Rank_bounded events in
  check "within envelope passes" true (is_pass (Check.rank_envelope h));
  let tight = { Check.default_bounds with Check.max_rank = 3 } in
  check "per-op ceiling fails" true (is_fail (Check.rank_envelope ~bounds:tight h));
  let tight_mean = { Check.default_bounds with Check.mean_rank = 1.0 } in
  check "mean ceiling fails" true (is_fail (Check.rank_envelope ~bounds:tight_mean h))

let test_for_spec_suites () =
  let names spec = List.map fst (Check.for_spec ~rank_bound:None spec) in
  Alcotest.(check (list string))
    "linearizable runs the Definition-1 check"
    [ "well-formed"; "conservation"; "strict (Def 1)" ]
    (names QA.Linearizable);
  Alcotest.(check (list string))
    "relaxed shares the linearizable suite" (names QA.Linearizable) (names QA.Relaxed);
  check "quiescent spec does not run strict checks" false
    (List.exists
       (fun n -> String.length n >= 6 && String.sub n 0 6 = "strict")
       (names QA.Quiescent));
  check "rank-bounded runs the envelope only" true
    (List.mem "rank-envelope" (names QA.Rank_bounded)
    && not (List.mem "quiescent" (names QA.Rank_bounded)))

(* --- blocking checks ------------------------------------------------------- *)

let test_blocking_wakeups () =
  check "no parked operation skips" true (is_skip (Check.blocking_wakeups (hist [])));
  (* a consumer parks at 2, the producer's insert starts at 4 (before the
     delete responds at 10), the wake hands the element over: legal *)
  let d = del ~proc:1 ~at:1 ~dur:9 (Some (5, 1)) in
  let good = hist [ ins ~at:4 5 1; d ] ~spans:[ span ~parked_at:2 ~woken_at:8 d ] in
  check "woken delete with a justifying insert passes" true
    (is_pass (Check.blocking_wakeups good));
  (* a parked delete that still came back EMPTY: the wake lost its element *)
  let e = del ~proc:1 ~at:1 ~dur:9 None in
  let empty = hist [ ins ~at:4 5 1; e ] ~spans:[ span ~parked_at:2 ~woken_at:8 e ] in
  check "blocked EMPTY fails" true (is_fail (Check.blocking_wakeups empty));
  (* the insert that justifies the wake only started after the delete had
     already responded — the element came from nowhere *)
  let late = hist [ ins ~at:20 5 1; d ] ~spans:[ span ~parked_at:2 ~woken_at:8 d ] in
  check "insert after the response fails" true (is_fail (Check.blocking_wakeups late));
  (* park/wake clocks must nest inside the operation's span *)
  let escaped = hist [ ins ~at:4 5 1; d ] ~spans:[ span ~parked_at:2 ~woken_at:12 d ] in
  check "wake after the response fails" true (is_fail (Check.blocking_wakeups escaped))

let test_capacity_bound () =
  let events = [ ins ~at:0 5 1; ins ~proc:2 ~at:2 3 2 ] in
  check "no capacity in force skips" true (is_skip (Check.capacity_bound (hist events)));
  check "two settled inserts fit capacity 2" true
    (is_pass (Check.capacity_bound (hist ~capacity:2 events)));
  check "two settled inserts overflow capacity 1" true
    (is_fail (Check.capacity_bound (hist ~capacity:1 events)));
  (* a delete in flight at the second insert's response may already have
     removed the first element, so the conservative bound exempts it *)
  let with_inflight = events @ [ del ~proc:1 ~at:1 ~dur:10 (Some (5, 1)) ] in
  check "in-flight delete relaxes the bound" true
    (is_pass (Check.capacity_bound (hist ~capacity:1 with_inflight)))

(* --- harness: determinism, replayability, clean backends ------------------ *)

let small_profile =
  { Harness.procs = 3; ops_per_proc = 12; prefill = 6; insert_ratio = 0.5; key_range = 64; jitter = 16 }

let strip h = (h.Check.events, h.Check.drained)

let test_harness_deterministic () =
  let impl = QA.find QA.Sim "skipqueue" in
  let a = Harness.run_one ~profile:small_profile impl 7L in
  let b = Harness.run_one ~profile:small_profile impl 7L in
  check "same seed, identical history" true (strip a = strip b);
  let c = Harness.run_one ~profile:small_profile impl 8L in
  check "different seed, different schedule" false (strip a = strip c)

let test_harness_records () =
  let impl = QA.find QA.Sim "heap" in
  let h = Harness.run_one ~profile:small_profile impl 3L in
  check "events recorded" true
    (List.length h.Check.events = small_profile.Harness.prefill + (3 * 12));
  check "spec carried over" true (h.Check.spec = QA.Quiescent);
  check "well-formed" true (is_pass (Check.well_formed h));
  check "conserved" true (is_pass (Check.conservation h))

let test_mini_sweep_clean () =
  let impls =
    List.map (QA.find QA.Sim)
      [
        "skipqueue";
        "relaxedskipqueue";
        "skipqueue-elim";
        "relaxedskipqueue-elim";
        "heap";
        "multiqueue";
      ]
  in
  let summaries = Harness.sweep ~profile:small_profile impls (Harness.seeds ~start:1L ~count:4) in
  List.iter
    (fun (s : Harness.summary) ->
      Alcotest.(check (list string))
        (s.Harness.impl ^ " clean")
        []
        (List.map (fun v -> v.Harness.check ^ ": " ^ v.Harness.message) s.Harness.violations))
    summaries

(* Seeds on which the default sweep once caught the bounded façade
   answering EMPTY over the lock-free SkipQueue while a completed insert's
   element was still in it (DESIGN.md §S18): a consumer had popped an
   in-flight insert's element and spent the completed insert's credit. *)
let test_bounded_lf_overdraw_seeds () =
  let s = Harness.sweep_impl (QA.find QA.Sim "bounded:SkipQueue-lf") [ 18L; 27L; 29L ] in
  Alcotest.(check (list string))
    "bounded:SkipQueue-lf clean" []
    (List.map
       (fun v -> Printf.sprintf "seed %Ld %s: %s" v.Harness.seed v.Harness.check v.Harness.message)
       s.Harness.violations)

(* DESIGN.md §S16: a sweep fanned out over domains must produce the very
   summary the sequential sweep does — same event counts, same verdicts,
   in the same order. *)
let test_sweep_jobs_identity () =
  let impls = List.map (QA.find QA.Sim) [ "skipqueue"; "relaxedskipqueue" ] in
  let seeds = Harness.seeds ~start:1L ~count:6 in
  let strip (s : Harness.summary) =
    ( s.Harness.impl,
      s.Harness.runs,
      s.Harness.events,
      List.map (fun v -> (v.Harness.seed, v.Harness.check, v.Harness.message)) s.Harness.violations
    )
  in
  let run jobs = List.map strip (Harness.sweep ~profile:small_profile ~jobs impls seeds) in
  check "jobs=4 sweep equals jobs=1 sweep" true (run 1 = run 4)

(* --- blocking harness ------------------------------------------------------ *)

let small_blocking =
  {
    Harness.producers = 3;
    consumers = 2;
    items_per_producer = 10;
    capacity = 4;
    burst = 4;
    key_range = 64;
    jitter = 16;
  }

let test_blocking_harness_deterministic () =
  let impl = QA.Sim.bounded ~capacity:small_blocking.Harness.capacity (QA.Sim.skipqueue ()) in
  let spans h = List.map (fun s -> (s.History.event, s.History.parks)) h.Check.spans in
  let a = Harness.run_blocking ~profile:small_blocking impl 7L in
  let b = Harness.run_blocking ~profile:small_blocking impl 7L in
  check "same seed, identical blocking history" true
    (strip a = strip b && spans a = spans b);
  check "capacity carried into the history" true (a.Check.capacity = Some 4);
  check "somebody parked" true (a.Check.spans <> [])

let test_blocking_sweep_clean () =
  let seeds = Harness.seeds ~start:1L ~count:3 in
  List.iter
    (fun impl ->
      let s =
        Harness.sweep_blocking
          ~profile:small_blocking
          (QA.Sim.bounded ~capacity:small_blocking.Harness.capacity impl)
          seeds
      in
      Alcotest.(check (list string))
        (s.Harness.impl ^ " blocking-clean")
        []
        (List.map (fun v -> v.Harness.check ^ ": " ^ v.Harness.message) s.Harness.violations))
    [ QA.Sim.skipqueue (); QA.Sim.make ~procs:8 (QA.plain QA.Multiqueue) ]

(* --- the planted mutants ------------------------------------------------- *)

let contains msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

(* Every mutant of [Broken.all], under the harness check.exe gives it: each
   is caught on seeds 1-10, and its first violation replays from the seed
   alone.  The lost wakeup surfaces as a deadlock naming its condition. *)
let test_every_mutant_caught () =
  let blocking = Harness.default_blocking_profile in
  List.iter
    (fun (m : Broken.t) ->
      let impl = m.Broken.impl ~capacity:blocking.Harness.capacity in
      let sweep seeds =
        match m.Broken.harness with
        | Broken.Plain -> Harness.sweep_impl impl seeds
        | Broken.Blocking -> Harness.sweep_blocking ~profile:blocking impl seeds
      in
      let s = sweep (Harness.seeds ~start:1L ~count:10) in
      match s.Harness.violations with
      | [] -> Alcotest.failf "mutant %s escaped seeds 1-10" m.Broken.name
      | v :: _ ->
        if m.Broken.harness = Broken.Blocking then
          check "diagnostic names a broken-bounded condition" true
            (contains v.Harness.message "broken-bounded");
        let s' = sweep [ v.Harness.seed ] in
        check
          (Printf.sprintf "%s: violation replays from seed %Ld" m.Broken.name v.Harness.seed)
          true
          (List.exists (fun v' -> v'.Harness.seed = v.Harness.seed) s'.Harness.violations))
    Broken.all

let mutant name = List.find (fun (m : Broken.t) -> m.Broken.name = name) Broken.all

(* A violation on [seeds], and its first seed replays to a violation again;
   returns that first violation's message. *)
let caught_and_replays what sweep seeds =
  let s = sweep seeds in
  match s.Harness.violations with
  | [] -> Alcotest.failf "%s produces no violations" what
  | v :: _ ->
    let s' = sweep [ v.Harness.seed ] in
    check "violation replays from its seed" true
      (List.exists (fun v' -> v'.Harness.seed = v.Harness.seed) s'.Harness.violations);
    v.Harness.message

let test_broken_queue_caught () =
  let impl = (mutant "swap").Broken.impl ~capacity:0 in
  ignore
    (caught_and_replays "torn SWAP" (Harness.sweep_impl impl) (Harness.seeds ~start:1L ~count:3))

let test_broken_elim_caught () =
  (* The torn-CAS mutant loses elimination rendezvous (withdraw-vs-match,
     double-match, reserve-clobbers-Got races); the real SWAP is left
     intact so any violation is specific to the front end's CAS protocol. *)
  let impl = (mutant "elim").Broken.impl ~capacity:0 in
  ignore
    (caught_and_replays "torn CAS" (Harness.sweep_impl impl) (Harness.seeds ~start:1L ~count:10))

let test_broken_wakeup_caught () =
  (* The lost-wakeup mutant signals the other end before the credit it
     announces exists; some schedule strands a parked processor, which the
     simulator reports as a deadlock and the harness converts into an
     execution violation naming the condition. *)
  let profile = { small_blocking with Harness.capacity = 4 } in
  let impl = (mutant "wakeup").Broken.impl ~capacity:4 in
  let msg =
    caught_and_replays "lost wakeup" (Harness.sweep_blocking ~profile impl)
      (Harness.seeds ~start:1L ~count:5)
  in
  check "diagnostic names a broken-bounded condition" true (contains msg "broken-bounded")

(* With no fault, the faulty runtime is the simulator runtime: the same
   descriptors built over it measure exactly what [QA.Sim] measures. *)
let test_faulty_without_fault_is_sim () =
  let module F = Repro_check.Faulty in
  let module Plain =
    QA.Over
      (F.Make (struct
        let target = None
        let wedged = Exit
      end))
      (struct
        let walk_charges = true
        let spawn = Some Repro_sim.Machine.spawn
      end)
  in
  let workload =
    {
      Repro_workload.Benchmark.default_workload with
      Repro_workload.Benchmark.procs = 8;
      initial_size = 100;
      total_ops = 400;
      key_range = 256;
    }
  in
  List.iter
    (fun d ->
      let run impl =
        F.reset ();
        Repro_workload.Benchmark.run impl workload
      in
      check (QA.name d ^ " measures as on Sim_runtime") true
        (run (Plain.make ~procs:8 d) = run (QA.Sim.make ~procs:8 d)))
    QA.[ plain Skipqueue; plain Lf; plain Co; { (plain Skipqueue) with elim = true }; plain (Klsm 4) ]

(* [Torn_swap] tears [fetch_and_add] as it tears [swap]: two processors
   adding to the named cell at one instant both read 0 and both write 1,
   while on an unnamed cell of the same runtime both adds land. *)
let test_faulty_torn_fetch_and_add () =
  let module F = Repro_check.Faulty.Make (struct
    let target = Some { Repro_check.Faulty.fault = Torn_swap; cells = Some "ctr" }
    let wedged = Exit
  end) in
  let torn = ref (-1) and whole = ref (-1) in
  Repro_check.Faulty.reset ();
  let (_ : Repro_sim.Machine.report) =
    Repro_sim.Machine.run (fun () ->
        let ctr = F.shared ~name:"ctr" 0 and other = F.shared 0 in
        for _ = 1 to 2 do
          Repro_sim.Machine.spawn (fun () ->
              ignore (F.fetch_and_add ctr 1);
              ignore (F.fetch_and_add other 1))
        done;
        Repro_sim.Machine.spawn (fun () ->
            Repro_sim.Machine.work 100_000;
            torn := F.read ctr;
            whole := F.read other))
  in
  Alcotest.(check int) "torn add loses an increment" 1 !torn;
  Alcotest.(check int) "untorn add keeps both" 2 !whole

let () =
  Alcotest.run "check"
    [
      ( "checkers",
        [
          Alcotest.test_case "sequential replay" `Quick test_sequential_replay;
          Alcotest.test_case "sequential replay, dedup" `Quick test_sequential_replay_dedup;
          Alcotest.test_case "quiescent" `Quick test_quiescent;
          Alcotest.test_case "quiescent, transit-tolerant" `Quick test_quiescent_transit_tolerant;
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "strict and relaxed" `Quick test_strict_and_relaxed;
          Alcotest.test_case "strict Definition 1" `Quick test_strict_definition1;
          Alcotest.test_case "strict wide window" `Quick test_strict_wide_window;
          Alcotest.test_case "rank envelope" `Quick test_rank_envelope;
          Alcotest.test_case "per-spec suites" `Quick test_for_spec_suites;
          Alcotest.test_case "blocking wakeups" `Quick test_blocking_wakeups;
          Alcotest.test_case "capacity bound" `Quick test_capacity_bound;
        ] );
      ( "harness",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_harness_deterministic;
          Alcotest.test_case "records full histories" `Quick test_harness_records;
          Alcotest.test_case "mini sweep clean" `Quick test_mini_sweep_clean;
          Alcotest.test_case "bounded lock-free overdraw seeds clean" `Quick
            test_bounded_lf_overdraw_seeds;
          Alcotest.test_case "parallel sweep identical" `Quick test_sweep_jobs_identity;
          Alcotest.test_case "broken queue caught" `Quick test_broken_queue_caught;
          Alcotest.test_case "broken elimination caught" `Quick test_broken_elim_caught;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_blocking_harness_deterministic;
          Alcotest.test_case "blocking sweep clean" `Quick test_blocking_sweep_clean;
          Alcotest.test_case "lost wakeup caught" `Quick test_broken_wakeup_caught;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "every mutant caught and replays" `Quick test_every_mutant_caught;
          Alcotest.test_case "faulty runtime without a fault is the simulator" `Quick
            test_faulty_without_fault_is_sim;
          Alcotest.test_case "torn fetch_and_add loses an increment" `Quick
            test_faulty_torn_fetch_and_add;
        ] );
    ]
