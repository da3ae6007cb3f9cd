(* Tests for the k-LSM relaxed backend: qcheck model properties (multiset
   conservation, the single-processor rank envelope), the buffer-flush
   boundary, seeded-schedule determinism, the bulk insert/delete API
   (batch = looped singles for every registered backend, and the
   SkipQueue's native batch path sharing one hunt pass), and the
   klsm:<k> registry names with their parse errors. *)

module Machine = Repro_sim.Machine
module Trace = Repro_sim.Trace
module Rng = Repro_util.Rng
module QA = Repro_workload.Queue_adapter
module KL = Repro_klsm.Klsm.Make (Repro_sim.Sim_runtime)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

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
        let q = KL.create ~buffer_capacity:8 ~k:64 ~procs:2 () in
        (* Exactly [capacity] inserts stay buffered: no flush, no block. *)
        for i = 1 to 8 do
          KL.insert q (100 - i) i
        done;
        check_int "no flush at capacity" 0 (KL.stats q).KL.flushes;
        check_int "no block at capacity" 0 (KL.block_count q);
        check_int "all buffered elements live" 8 (KL.live_length q);
        (* The insert after the boundary flushes the full buffer as one
           block and lands in the fresh generation. *)
        KL.insert q 50 9;
        check_int "one flush past capacity" 1 (KL.stats q).KL.flushes;
        check "a block was published" true (KL.block_count q >= 1);
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
        let q = KL.create ~buffer_capacity:8 ~k:64 ~procs:2 () in
        for i = 1 to 257 do
          KL.insert q i i
        done;
        let s = KL.stats q in
        check_int "32 flushes" 32 s.KL.flushes;
        check "merges fired" true (s.KL.merges > 0);
        check "block count is logarithmic, not linear" true
          (KL.block_count q <= 8);
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
        check "capacity-0 insert published a block" true (KL.block_count q >= 1);
        check_int "buffered nothing" 1 (KL.live_length q);
        check "delivers" true (KL.delete_min q = Some (3, 30)))
  in
  ()

let test_insert_batch_single_block () =
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = KL.create ~buffer_capacity:8 ~k:64 ~procs:2 () in
        KL.insert_batch q [| (5, 50); (1, 10); (9, 90); (3, 30) |];
        let s = KL.stats q in
        check_int "one batch insert" 1 s.KL.batch_inserts;
        check_int "no buffer flush" 0 s.KL.flushes;
        check_int "batch published one block" 1 (KL.block_count q);
        check "batch head is the minimum" true (KL.delete_min q = Some (1, 10)))
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

(* --- bulk API: batch = looped singles across the registries --------------- *)

let batch_kvs = [| (5, 50); (1, 10); (9, 90); (3, 30); (7, 70); (2, 20) |]

(* Insert via the batch entry point, drain via the batch entry point, and
   compare (as multisets) with a fresh instance driven one element at a
   time.  Keys are distinct, so dedup semantics cannot blur the check. *)
let batch_agrees_with_singles (q_batch : QA.instance) (q_single : QA.instance) =
  q_batch.QA.insert_batch batch_kvs;
  let via_batch = q_batch.QA.delete_min_batch (Array.length batch_kvs + 4) in
  Array.iter (fun (k, v) -> q_single.QA.insert k v) batch_kvs;
  let rec drain acc =
    match q_single.QA.try_delete_min () with
    | Some kv -> drain (kv :: acc)
    | None -> List.rev acc
  in
  let via_singles = drain [] in
  let reference = List.sort compare (Array.to_list batch_kvs) in
  List.sort compare via_batch = reference
  && List.sort compare via_singles = reference

let test_bulk_api_sim_backends () =
  List.iter
    (fun impl ->
      let ok = ref false in
      let (_ : Machine.report) =
        Machine.run (fun () ->
            ok := batch_agrees_with_singles (impl.QA.create ()) (impl.QA.create ()))
      in
      check (impl.QA.name ^ ": batch = singles (sim)") true !ok)
    (QA.all QA.Sim)

let test_bulk_api_native_backends () =
  List.iter
    (fun impl ->
      check
        (impl.QA.name ^ ": batch = singles (native)")
        true
        (batch_agrees_with_singles (impl.QA.create ()) (impl.QA.create ())))
    (QA.all QA.Native)

(* The SkipQueue's delete_min_batch must go through [hunt_batch]: one
   bottom-level pass however many elements the batch claims, where the
   looped singles pay one pass per element.  Pinned via the adapter's
   "hunt_passes" stat. *)
let test_skipqueue_batch_shares_one_hunt () =
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = (QA.Sim.skipqueue ()).QA.create () in
        let passes () =
          match List.assoc_opt "hunt_passes" (q.QA.stats ()) with
          | Some f -> int_of_float f
          | None -> Alcotest.fail "skipqueue stats lack hunt_passes"
        in
        for i = 1 to 8 do
          q.QA.insert (i * 10) i
        done;
        let before = passes () in
        let batch = q.QA.delete_min_batch 4 in
        check_int "batch claimed 4" 4 (List.length batch);
        check_int "one hunt pass for the whole batch" (before + 1) (passes ());
        let mid = passes () in
        for _ = 1 to 4 do
          ignore (q.QA.try_delete_min ())
        done;
        check_int "looped singles pay one pass each" (mid + 4) (passes ()))
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
  check "on-the-fly spec" true (i.QA.spec = QA.Rank_bounded);
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

(* The rank bound travels as [impl.rank_bound] — through the bounded
   façade and on the k-LSM mutant — and keys the checkers' envelope. *)
let test_rank_bound_keying () =
  let bound name = (QA.find QA.Sim name).QA.rank_bound in
  check "klsm:256" true (bound "klsm:256" = Some 256);
  let b64 = QA.find QA.Sim "bounded:klsm:64" in
  check "bounded:klsm:64 resolves" true
    (b64.QA.rank_bound = Some 64 && b64.QA.spec = QA.Rank_bounded);
  let module Broken = Repro_check.Broken in
  let mutant = List.find (fun m -> m.Broken.name = "klsm") Broken.all in
  check "mutant carries k = 1" true ((mutant.Broken.impl ~capacity:0).QA.rank_bound = Some 1);
  check "MultiQueue has none" true (bound "MultiQueue" = None);
  let module Check = Repro_check.Checkers in
  let b = Check.bounds_for (Some 64) in
  check_int "envelope ceiling keyed to k" (64 + Check.klsm_margin) b.Check.max_rank;
  check "mean ceiling keyed to k" true
    (b.Check.mean_rank = float_of_int (64 + Check.klsm_margin));
  check_int "window untouched" Check.default_bounds.Check.max_window b.Check.max_window;
  check "no bound keeps the defaults" true (Check.bounds_for None = Check.default_bounds);
  (* A bound within klsm_margin of max_int saturates instead of wrapping. *)
  List.iter
    (fun k ->
      let b = Check.bounds_for (Some k) in
      check_int (Printf.sprintf "k = %d saturates" k) max_int b.Check.max_rank;
      check "mean saturates" true (b.Check.mean_rank = float_of_int max_int))
    [ max_int; max_int - 1; max_int - Check.klsm_margin + 1 ]

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
          Alcotest.test_case "insert_batch publishes one block" `Quick
            test_insert_batch_single_block;
        ] );
      ( "determinism",
        [ Alcotest.test_case "seeded trace fingerprint" `Quick test_trace_determinism ] );
      ( "bulk-api",
        [
          Alcotest.test_case "batch = singles (all sim backends)" `Quick
            test_bulk_api_sim_backends;
          Alcotest.test_case "batch = singles (all native backends)" `Quick
            test_bulk_api_native_backends;
          Alcotest.test_case "skipqueue batch shares one hunt pass" `Quick
            test_skipqueue_batch_shares_one_hunt;
        ] );
      ( "registry",
        [
          Alcotest.test_case "klsm:<k> names resolve" `Quick test_registry_klsm_names;
          Alcotest.test_case "malformed bounds report precisely" `Quick
            test_registry_klsm_parse_errors;
          Alcotest.test_case "k extraction and envelope keying" `Quick
            test_rank_bound_keying;
        ] );
    ]
