(* Tests for the k-LSM relaxed backend: qcheck model properties (multiset
   conservation, the single-processor rank envelope), the buffer-flush
   boundary, seeded-schedule determinism, the SkipQueue's batch hunt
   sharing one pass, and the klsm:<k> registry names with their parse
   errors. *)

module Machine = Repro_sim.Machine
module Trace = Repro_sim.Trace
module Rng = Repro_util.Rng
module QA = Repro_workload.Queue_adapter
module KL = Repro_klsm.Klsm.Make (Repro_sim.Sim_runtime)
module SQ = Repro_skipqueue.Skipqueue.Make (Repro_sim.Sim_runtime)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let stat name stats = int_of_float (List.assoc name stats)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- qcheck model properties --------------------------------------------- *)

(* A random concurrent scenario: [procs] processors each perform [ops]
   operations (inserts of random keys with globally unique values, or
   delete-mins), under a perturbed schedule derived from [seed]. *)
type scenario = { k : int; procs : int; ops : int; seed : int }

let scenario_gen =
  QCheck.Gen.(
    map4
      (fun k procs ops seed -> { k; procs; ops; seed })
      (oneofl [ 1; 4; 64; 1024 ])
      (int_range 2 5) (int_range 10 40) (int_range 0 1_000_000))

let scenario_print s =
  Printf.sprintf "{k=%d; procs=%d; ops=%d; seed=%d}" s.k s.procs s.ops s.seed

let arbitrary_scenario = QCheck.make ~print:scenario_print scenario_gen

(* Run the scenario; returns (inserted, deleted, drained) as (key, value)
   lists, with every inserted value unique. *)
let run_scenario s =
  let inserted = ref [] and deleted = ref [] and drained = ref [] in
  let (_ : Machine.report) =
    Machine.run
      ~perturb:{ Machine.sched_seed = Int64.of_int s.seed; jitter = 24 }
      (fun () ->
        let q = KL.create ~seed:(Int64.of_int s.seed) ~k:s.k ~procs:s.procs () in
        for p = 0 to s.procs - 1 do
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.of_int ((s.seed * 31) + p + 1)) in
              for i = 0 to s.ops - 1 do
                if Rng.int rng 100 < 60 then begin
                  let kv = (Rng.int rng 200, ((p + 1) * 100_000) + i) in
                  inserted := kv :: !inserted;
                  KL.insert q (fst kv) (snd kv)
                end
                else begin
                  match KL.delete_min q with
                  | Some kv -> deleted := kv :: !deleted
                  | None -> ()
                end;
                Machine.work (1 + Rng.int rng 64)
              done)
        done;
        Machine.spawn (fun () ->
            Machine.work (1 lsl 55);
            let rec go () =
              match KL.delete_min q with
              | Some kv ->
                drained := kv :: !drained;
                go ()
              | None -> ()
            in
            go ()))
  in
  (!inserted, !deleted, !drained)

(* Multiset conservation against the reference: everything inserted comes
   out exactly once (as a delete or in the quiescent drain), nothing else
   does.  Values are unique, so sorting the pair lists compares the
   multisets exactly. *)
let conservation_prop =
  QCheck.Test.make ~name:"random schedules conserve the multiset" ~count:40
    arbitrary_scenario (fun s ->
      let inserted, deleted, drained = run_scenario s in
      List.sort compare inserted = List.sort compare (deleted @ drained))

(* Single-processor rank envelope: with no concurrency the structural
   bound is exact — every Delete-min returns an element with at most k
   live elements strictly smaller, measured against a reference multiset
   replayed in lock step. *)
let rank_envelope_prop =
  QCheck.Test.make ~name:"single-proc observed rank error <= k" ~count:60
    arbitrary_scenario (fun s ->
      let ok = ref true in
      let (_ : Machine.report) =
        Machine.run (fun () ->
            let q = KL.create ~seed:(Int64.of_int s.seed) ~k:s.k ~procs:1 () in
            let live = ref [] in
            let rng = Rng.of_seed (Int64.of_int (s.seed + 7)) in
            for i = 0 to (4 * s.ops) - 1 do
              if Rng.int rng 100 < 55 then begin
                let kv = (Rng.int rng 200, i) in
                live := kv :: !live;
                KL.insert q (fst kv) (snd kv)
              end
              else
                match KL.delete_min q with
                | None -> if !live <> [] then ok := false
                | Some (key, v) ->
                  let rank =
                    List.length (List.filter (fun (k', _) -> k' < key) !live)
                  in
                  if rank > s.k then ok := false;
                  if not (List.mem (key, v) !live) then ok := false;
                  live :=
                    (let rec drop = function
                       | [] -> []
                       | kv :: rest -> if kv = (key, v) then rest else kv :: drop rest
                     in
                     drop !live)
            done)
      in
      !ok)

(* --- buffer-flush boundary ------------------------------------------------ *)

let test_flush_boundary () =
  let (_ : Machine.report) =
    Machine.run (fun () ->
        (* k = 16 at 2 processors: 16 / (2 * 1) = 8 buffer slots. *)
        let q = KL.create ~k:16 ~procs:2 () in
        (* Exactly [capacity] inserts stay buffered: no flush, no block. *)
        for i = 1 to 8 do
          KL.insert q (100 - i) i
        done;
        check_int "no flush at capacity" 0 (stat "flushes" (KL.stats q));
        check_int "no block at capacity" 0 (stat "blocks" (KL.stats q));
        check_int "all buffered elements live" 8 (KL.live_length q);
        (* The insert after the boundary flushes the full buffer as one
           block and lands in the fresh generation. *)
        KL.insert q 50 9;
        check_int "one flush past capacity" 1 (stat "flushes" (KL.stats q));
        check "a block was published" true (stat "blocks" (KL.stats q) >= 1);
        check_int "nothing lost across the flush" 9 (KL.live_length q);
        (* The claim path sees buffer and block alike: drain is complete
           and ascending. *)
        let rec drain acc =
          match KL.delete_min q with Some kv -> drain (kv :: acc) | None -> List.rev acc
        in
        let keys = List.map fst (drain []) in
        check_int "drain complete" 9 (List.length keys);
        check "drain ascending" true (List.sort compare keys = keys))
  in
  ()

let test_log_structured_merge () =
  (* The binary-counter merge must actually fold published blocks: after
     n flushes the shared component holds O(log n) blocks, not n.  (This
     pins a real regression — a merge CAS that compared against a rebuilt
     list never committed, leaving one block per flush and a per-delete
     scan linear in the flush count.) *)
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = KL.create ~k:16 ~procs:2 () in
        (* 8 buffer slots, so 257 inserts flush 32 times. *)
        for i = 1 to 257 do
          KL.insert q i i
        done;
        let s = KL.stats q in
        check_int "32 flushes" 32 (stat "flushes" s);
        check "merges fired" true (stat "merges" s > 0);
        check "block count is logarithmic, not linear" true
          (stat "blocks" (KL.stats q) <= 8);
        check_int "nothing lost through the merges" 257 (KL.live_length q))
  in
  ()

let test_capacity_zero_publishes_singletons () =
  (* k = 1 at 6 processors gives buffer capacity 0: every insert is its
     own block publish (the configuration the torn-spill mutant runs). *)
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = KL.create ~k:1 ~procs:6 () in
        KL.insert q 3 30;
        check "capacity-0 insert published a block" true (stat "blocks" (KL.stats q) >= 1);
        check_int "buffered nothing" 1 (KL.live_length q);
        check "delivers" true (KL.delete_min q = Some (3, 30)))
  in
  ()

(* --- seeded-schedule determinism ------------------------------------------ *)

let test_trace_determinism () =
  let fingerprint () =
    let summary = Trace.Summary.create () in
    let deleted = ref [] in
    let (_ : Machine.report) =
      Machine.run
        ~perturb:{ Machine.sched_seed = 42L; jitter = 24 }
        ~tracer:(Trace.Summary.sink summary)
        (fun () ->
          let q = KL.create ~seed:9L ~k:16 ~procs:4 () in
          for p = 0 to 3 do
            Machine.spawn (fun () ->
                let rng = Rng.of_seed (Int64.of_int (p + 1)) in
                for i = 0 to 29 do
                  if Rng.int rng 100 < 60 then
                    KL.insert q (Rng.int rng 128) (((p + 1) * 1000) + i)
                  else begin
                    match KL.delete_min q with
                    | Some kv -> deleted := kv :: !deleted
                    | None -> ()
                  end;
                  Machine.work (1 + Rng.int rng 32)
                done)
          done)
    in
    (Trace.Summary.events summary, !deleted)
  in
  let a = fingerprint () and b = fingerprint () in
  check "trace event counts identical" true (fst a = fst b);
  check "delete streams identical" true (snd a = snd b)

(* --- the SkipQueue's batch hunt ------------------------------------------- *)

(* [hunt_batch] claims a whole batch in one bottom-level pass, where
   looped delete_mins pay one pass per element: the elimination combiner
   serves its timed-out deleters this way.  Pinned via [hunt_passes]. *)
let test_skipqueue_batch_shares_one_hunt () =
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = SQ.create () in
        let passes () = stat "hunt_passes" (SQ.stats q) in
        for i = 1 to 8 do
          ignore (SQ.insert q (i * 10) i)
        done;
        let before = passes () in
        let batch = SQ.hunt_batch q ~want:4 in
        let claims = SQ.batch_claims batch in
        SQ.finish_batch q batch;
        Alcotest.(check (list (pair int int)))
          "batch claims the four smallest, in order"
          [ (10, 1); (20, 2); (30, 3); (40, 4) ]
          claims;
        check_int "one hunt pass for the whole batch" (before + 1) (passes ());
        let mid = passes () in
        for _ = 1 to 4 do
          ignore (SQ.delete_min q)
        done;
        check_int "looped singles pay one pass each" (mid + 4) (passes ());
        check "drained" true (SQ.delete_min q = None))
  in
  ()

(* --- klsm:<k> registry names ---------------------------------------------- *)

let test_registry_klsm_names () =
  (* The default entry is registered in both backends... *)
  check "sim registry lists klsm:256" true (List.mem "klsm:256" (QA.names QA.Sim));
  check "native registry lists klsm:256" true
    (List.mem "klsm:256" (QA.names QA.Native));
  (* ...and any other positive k constructs on the fly. *)
  let i = QA.find QA.Sim "klsm:7" in
  Alcotest.(check string) "on-the-fly name" "klsm:7" i.QA.name;
  check "on-the-fly spec" true
    (i.QA.spec = QA.Rank_bounded { QA.max_rank = 7; mean_rank = 7.0 });
  Alcotest.(check string)
    "native on-the-fly" "klsm:31" (QA.find QA.Native "klsm:31").QA.name;
  Alcotest.(check string)
    "case/space tolerant" "klsm:8" (QA.find QA.Sim " KLSM:8 ").QA.name

let test_registry_klsm_parse_errors () =
  check "parse accepts" true (QA.parse "klsm:12" = Ok (QA.plain (QA.Klsm 12)));
  (match QA.parse "klsm:0" with
  | Ok _ -> Alcotest.fail "klsm:0 parsed"
  | Error msg -> check "k=0 names positivity" true (contains msg "positive"));
  (match QA.find QA.Sim "klsm:0" with
  | _ -> Alcotest.fail "expected Invalid_argument for klsm:0"
  | exception Invalid_argument msg ->
    check "find reports the bad bound" true
      (contains msg "positive" && contains msg "klsm:0"));
  (match QA.find QA.Sim "klsm:abc" with
  | _ -> Alcotest.fail "expected Invalid_argument for klsm:abc"
  | exception Invalid_argument msg ->
    check "find reports the malformed bound" true
      (contains msg "malformed" && contains msg "abc"));
  (* A non-klsm miss still gets the generic known-names message. *)
  match QA.find QA.Sim "nosuchqueue" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    check "generic miss lists the registry" true (contains msg "known:")

(* The rank bound is the payload of the k-LSM's spec — through the
   bounded façade and on the k-LSM mutant — with no margin on top, up to
   the largest k a name can spell. *)
let test_rank_bound_keying () =
  let spec name = (QA.find QA.Sim name).QA.spec in
  let bound k = QA.Rank_bounded { QA.max_rank = k; mean_rank = float_of_int k } in
  check "klsm:256" true (spec "klsm:256" = bound 256);
  check "bounded:klsm:64 keeps its bound" true (spec "bounded:klsm:64" = bound 64);
  check "klsm:max_int" true (spec (Printf.sprintf "klsm:%d" max_int) = bound max_int);
  let module Broken = Repro_check.Broken in
  let mutant = List.find (fun m -> m.Broken.name = "klsm") Broken.all in
  check "mutant carries k = 1" true ((mutant.Broken.impl ~capacity:0).QA.spec = bound 1);
  check "MultiQueue keeps the sampled ceilings" true
    (spec "MultiQueue" = QA.Rank_bounded { QA.max_rank = 128; mean_rank = 32.0 })

(* Seeds on which the 32-worker rank check once caught klsm:1 answering
   EMPTY over live elements: its spy sweep gave up after five lost claims
   instead of sweeping again. *)
let test_spy_sweep_retries_lost_claims () =
  let module H = Repro_check.Harness in
  let profile = { H.default_profile with H.procs = 32 } in
  let s = H.sweep_impl ~profile (QA.find QA.Sim "klsm:1") [ 5L; 6L; 7L ] in
  Alcotest.(check (list string))
    "klsm:1 clean at 32 workers" []
    (List.map
       (fun v -> Printf.sprintf "seed %Ld %s: %s" v.H.seed v.H.check v.H.message)
       s.H.violations)

let () =
  Alcotest.run "klsm"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest conservation_prop;
          QCheck_alcotest.to_alcotest rank_envelope_prop;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "buffer flush at capacity" `Quick test_flush_boundary;
          Alcotest.test_case "binary-counter merge keeps blocks logarithmic"
            `Quick test_log_structured_merge;
          Alcotest.test_case "capacity-0 singleton publishes" `Quick
            test_capacity_zero_publishes_singletons;
          Alcotest.test_case "spy sweep retries lost claims" `Quick
            test_spy_sweep_retries_lost_claims;
        ] );
      ( "determinism",
        [ Alcotest.test_case "seeded trace fingerprint" `Quick test_trace_determinism ] );
      ( "bulk-api",
        [
          Alcotest.test_case "skipqueue batch shares one hunt pass" `Quick
            test_skipqueue_batch_shares_one_hunt;
        ] );
      ( "registry",
        [
          Alcotest.test_case "klsm:<k> names resolve" `Quick test_registry_klsm_names;
          Alcotest.test_case "malformed bounds report precisely" `Quick
            test_registry_klsm_parse_errors;
          Alcotest.test_case "k extraction and rank-bound keying" `Quick
            test_rank_bound_keying;
        ] );
    ]
