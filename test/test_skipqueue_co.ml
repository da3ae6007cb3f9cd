(* Tests for the coalescing SkipQueue (DESIGN.md §S21) and its packed
   lock word: qcheck encode/decode round-trips with the locking-discipline
   violations, sequential join/split/FIFO semantics, the traced accesses
   of a release, qcheck multiset conservation, a seed-pinned schedule
   exercising both the join and the link-after path, the strict/relaxed
   timestamp switch, one coalesced node fulfilling a whole batch hunt in
   a single pass, and a two-domain native stress. *)

module Machine = Repro_sim.Machine
module Sim_rt = Repro_sim.Sim_runtime
module Native_rt = Repro_runtime.Native_runtime
module Rng = Repro_util.Rng
module QA = Repro_workload.Queue_adapter
module LW = Repro_skipqueue.Co_lockword
module CO = Repro_skipqueue.Skipqueue_co.Make (Sim_rt)
module CO_native = Repro_skipqueue.Skipqueue_co.Make (Native_rt)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let stat name stats = int_of_float (List.assoc name stats)

let ok_or_fail = function Ok () -> () | Error msg -> Alcotest.fail msg

let in_sim f =
  let result = ref None in
  let (_ : Machine.report) = Machine.run (fun () -> result := Some (f ())) in
  Option.get !result

let violates f = match f () with _ -> false | exception LW.Violation _ -> true

(* --- packed lock word ---------------------------------------------------- *)

(* A layout plus a word every field of which is independently random:
   born within capacity, claimed within born, full flag, an arbitrary
   subset of level locks. *)
let fields_gen =
  QCheck.Gen.(
    int_range 1 40 >>= fun max_level ->
    let l = LW.make ~max_level in
    let cap = Int.min (LW.count_capacity l) 1_000_000 in
    int_range 0 cap >>= fun born ->
    triple (int_range 0 born) bool
      (list_size (int_range 0 max_level) (int_range 1 max_level))
    >|= fun (claimed, full, levels) ->
    let levels = List.sort_uniq compare levels in
    (max_level, { LW.born; claimed; full; levels }))

let print_fields (max_level, f) =
  Printf.sprintf "{max_level=%d; born=%d; claimed=%d; full=%b; levels=[%s]}"
    max_level f.LW.born f.LW.claimed f.LW.full
    (String.concat ";" (List.map string_of_int f.LW.levels))

let arbitrary_fields = QCheck.make ~print:print_fields fields_gen

let roundtrip_prop =
  QCheck.Test.make ~name:"decode (encode f) = f" ~count:500 arbitrary_fields
    (fun (max_level, f) ->
      let l = LW.make ~max_level in
      LW.decode l (LW.encode l f) = f)

(* Field accessors agree with the decoded view, on any encodable word. *)
let accessors_prop =
  QCheck.Test.make ~name:"accessors agree with decode" ~count:500
    arbitrary_fields (fun (max_level, f) ->
      let l = LW.make ~max_level in
      let w = LW.encode l f in
      LW.born l w = f.LW.born
      && LW.claimed l w = f.LW.claimed
      && LW.count l w = f.LW.born - f.LW.claimed
      && LW.full_locked l w = f.LW.full
      && List.for_all
           (fun i -> LW.level_locked l w i = List.mem i f.LW.levels)
           (List.init max_level (fun i -> i + 1)))

(* Lock/unlock are inverse bit transitions that never disturb the other
   fields; re-acquire and double release raise. *)
let level_lock_prop =
  QCheck.Test.make ~name:"level lock set/clear round-trip and discipline"
    ~count:500 arbitrary_fields (fun (max_level, f) ->
      let l = LW.make ~max_level in
      let w = LW.encode l f in
      List.for_all
        (fun i ->
          if List.mem i f.LW.levels then
            violates (fun () -> LW.lock_level l w i)
            && LW.unlock_level l (LW.lock_level l (LW.unlock_level l w i) i) i
               = LW.unlock_level l w i
          else
            violates (fun () -> LW.unlock_level l w i)
            && LW.unlock_level l (LW.lock_level l w i) i = w
            && LW.level_locked l (LW.lock_level l w i) i)
        (List.init max_level (fun i -> i + 1)))

(* The tickets are monotone and range-checked: admit bumps born (refusing
   at capacity), claim bumps claimed (refusing past born), neither
   disturbs the lock bits, and their composition moves the live count the
   way a join or a delete-min claim does. *)
let ticket_prop =
  QCheck.Test.make ~name:"admit/claim ticket moves and range" ~count:500
    arbitrary_fields (fun (max_level, f) ->
      let l = LW.make ~max_level in
      let w = LW.encode l f in
      let cap = LW.count_capacity l in
      let live = f.LW.born - f.LW.claimed in
      let locks_untouched w' =
        LW.full_locked l w' = f.LW.full
        && List.for_all
             (fun i -> LW.level_locked l w' i = List.mem i f.LW.levels)
             (List.init max_level (fun i -> i + 1))
      in
      (if f.LW.born = cap then violates (fun () -> LW.admit l w)
       else
         let w' = LW.admit l w in
         LW.born l w' = f.LW.born + 1
         && LW.claimed l w' = f.LW.claimed
         && LW.count l w' = live + 1
         && locks_untouched w')
      && (if live = 0 then violates (fun () -> LW.claim_n l w 1)
          else
            let w' = LW.claim_n l w 1 in
            LW.claimed l w' = f.LW.claimed + 1
            && LW.born l w' = f.LW.born
            && LW.count l w' = live - 1
            && locks_untouched w')
      && (live = 0
         || LW.claim_n l w live = LW.encode l { f with LW.claimed = f.LW.born })
      && violates (fun () -> LW.claim_n l w (live + 1))
      && violates (fun () -> LW.claim_n l w 0))

let test_lockword_basics () =
  let l = LW.make ~max_level:20 in
  check_int "empty is all-clear" 0 LW.empty;
  check "empty decodes clear" true
    (LW.decode l LW.empty
    = { LW.born = 0; claimed = 0; full = false; levels = [] });
  let w = LW.lock_full l LW.empty in
  check "full lock set" true (LW.full_locked l w);
  check "full re-acquire raises" true (violates (fun () -> LW.lock_full l w));
  check "full unlock restores" true (LW.unlock_full l w = LW.empty);
  check "full double release raises" true
    (violates (fun () -> LW.unlock_full l LW.empty));
  check "level out of range" true
    (match LW.lock_level l LW.empty 21 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "encode rejects duplicate levels" true
    (violates (fun () ->
         LW.encode l
           { LW.born = 0; claimed = 0; full = false; levels = [ 3; 3 ] }));
  check "encode rejects claimed past born" true
    (violates (fun () ->
         LW.encode l { LW.born = 1; claimed = 2; full = false; levels = [] }));
  check "layout bounds enforced" true
    (match LW.make ~max_level:41 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- sequential coalescing semantics ------------------------------------- *)

let test_join_then_split_at_capacity () =
  in_sim (fun () ->
      let q = CO.create ~capacity:2 () in
      check "first equal-key insert links" true (CO.insert q 5 10 = `Inserted);
      check "second joins the live node" true (CO.insert q 5 11 = `Inserted);
      check "third splits past capacity" true (CO.insert q 5 12 = `Inserted);
      let c = CO.stats q in
      check_int "one coalesced insert" 1 (stat "coalesced_inserts" c);
      check_int "one capacity split" 1 (stat "node_splits" c);
      ignore (CO.insert q 3 30);
      check_int "size counts elements" 4 (CO.size q);
      ok_or_fail (CO.check_invariants q);
      (* FIFO within a key, ascending across keys. *)
      Alcotest.(check (list (pair int int)))
        "drain order"
        [ (3, 30); (5, 10); (5, 11); (5, 12) ]
        (List.filter_map (fun () -> CO.delete_min q) [ (); (); (); () ]);
      check "then empty" true (CO.delete_min q = None))

let test_reinsert_after_node_drained () =
  (* Draining a node to zero marks and unlinks it; the next equal-key
     insert must link a fresh node, not resurrect the dead one. *)
  in_sim (fun () ->
      let q = CO.create ~capacity:4 () in
      ignore (CO.insert q 7 70);
      ignore (CO.insert q 7 71);
      check "drain a" true (CO.delete_min q = Some (7, 70));
      check "drain b" true (CO.delete_min q = Some (7, 71));
      check "empty between" true (CO.delete_min q = None);
      check "re-insert links fresh" true (CO.insert q 7 72 = `Inserted);
      ok_or_fail (CO.check_invariants q);
      check "fresh node delivers" true (CO.delete_min q = Some (7, 72)))

(* --- the accesses of a release ------------------------------------------ *)

(* Only a lock bit's holder clears it, so a release is one fetch-and-add
   with no look at the word first.  An uncontended strict insert of 2
   after the one-level element node holding 1 takes that predecessor's
   level bit (a read and a CAS of its word), splices, releases the bit,
   then releases the full bit the new node was born holding.  Each
   release must be a single Swap with no read of its line before it:
   the predecessor's word sees [Read; Swap; Swap], the new node's word
   [Swap] alone. *)
let test_release_is_one_swap () =
  let open Repro_sim.Memory_model in
  let kind =
    Alcotest.testable
      (fun ppf k ->
        Format.pp_print_string ppf
          (match k with Read -> "read" | Write -> "write" | Swap -> "swap"))
      ( = )
  in
  let measuring = ref false and accesses = ref [] in
  let tracer = function
    | Repro_sim.Trace.Accessed { location; kind; _ } when !measuring ->
      accesses := (location, kind) :: !accesses
    | _ -> ()
  in
  let (_ : Machine.report) =
    Machine.run ~tracer (fun () ->
        let q = CO.create ~mode:CO.Strict ~max_level:1 () in
        ignore (CO.insert q 1 10);
        measuring := true;
        ignore (CO.insert q 2 20);
        measuring := false;
        ok_or_fail (CO.check_invariants q))
  in
  let trace = List.rev !accesses in
  let on line = List.filter_map (fun (l, k) -> if l = line then Some k else None) trace in
  match List.filter_map (fun (l, k) -> if k = Swap then Some l else None) trace with
  | [ acquired; released; born_held ] ->
    check "the predecessor's bit is released on the word it was taken on" true
      (acquired = released);
    check "the new node's full bit is released on its own word" true (born_held <> acquired);
    Alcotest.(check (list kind))
      "predecessor's word: acquire read, acquire CAS, release" [ Read; Swap; Swap ]
      (on acquired);
    Alcotest.(check (list kind)) "new node's word: release" [ Swap ] (on born_held)
  | l -> Alcotest.failf "%d swaps in the insert, expected 3" (List.length l)

(* --- qcheck multiset-model agreement ------------------------------------- *)

type scenario = { procs : int; ops : int; range : int; seed : int }

let scenario_gen =
  QCheck.Gen.(
    map4
      (fun procs ops range seed -> { procs; ops; range; seed })
      (int_range 2 5) (int_range 10 40) (oneofl [ 4; 16; 64 ])
      (int_range 0 1_000_000))

let scenario_print s =
  Printf.sprintf "{procs=%d; ops=%d; range=%d; seed=%d}" s.procs s.ops s.range
    s.seed

let arbitrary_scenario = QCheck.make ~print:scenario_print scenario_gen

(* Concurrent multiset conservation: every element inserted (values
   globally unique, keys deliberately duplicate-heavy) comes back out
   exactly once, and the structure is quiescently well-formed after. *)
let conservation_prop =
  QCheck.Test.make ~name:"random schedules conserve the multiset" ~count:40
    arbitrary_scenario (fun s ->
      let inserted = ref [] and deleted = ref [] and drained = ref [] in
      let structural = ref (Ok ()) in
      let (_ : Machine.report) =
        Machine.run
          ~perturb:{ Machine.sched_seed = Int64.of_int s.seed; jitter = 24 }
          (fun () ->
            let q = CO.create ~seed:(Int64.of_int s.seed) ~capacity:3 () in
            for p = 0 to s.procs - 1 do
              Machine.spawn (fun () ->
                  let rng = Rng.of_seed (Int64.of_int ((s.seed * 31) + p + 1)) in
                  for i = 0 to s.ops - 1 do
                    if Rng.int rng 100 < 60 then begin
                      let kv = (Rng.int rng s.range, ((p + 1) * 100_000) + i) in
                      inserted := kv :: !inserted;
                      ignore (CO.insert q (fst kv) (snd kv))
                    end
                    else begin
                      match CO.delete_min q with
                      | Some kv -> deleted := kv :: !deleted
                      | None -> ()
                    end;
                    Machine.work (1 + Rng.int rng 64)
                  done)
            done;
            Machine.spawn (fun () ->
                Machine.work (1 lsl 55);
                let rec go () =
                  match CO.delete_min q with
                  | Some kv ->
                    drained := kv :: !drained;
                    go ()
                  | None -> ()
                in
                go ();
                structural := CO.check_invariants q))
      in
      Result.is_ok !structural
      && List.sort compare !inserted = List.sort compare (!deleted @ !drained))

(* --- seed-pinned join-vs-link schedule ----------------------------------- *)

(* One pinned perturbation seed, duplicate-heavy keys, capacity 2: the
   schedule must drive inserts down BOTH paths — joining a live equal-key
   node and linking fresh past a full one — and twice through the same
   seed must be bit-identical (stats included).  After the stats are
   taken a final process checks the invariants on the populated queue,
   drains it and checks them again on the empty one, so callers can also
   check that every inserted element came back out exactly once. *)
let run_pinned ?(mode = CO.Strict) () =
  let inserted = ref [] and deleted = ref [] and drained = ref [] in
  let stats = ref None in
  let structural = ref (Ok ()) in
  let (_ : Machine.report) =
    Machine.run
      ~perturb:{ Machine.sched_seed = 1234L; jitter = 32 }
      (fun () ->
        let q = CO.create ~mode ~seed:5L ~capacity:2 () in
        for p = 0 to 3 do
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.of_int (p + 1)) in
              for i = 0 to 39 do
                if Rng.int rng 100 < 65 then begin
                  let kv = (Rng.int rng 6, ((p + 1) * 1000) + i) in
                  inserted := kv :: !inserted;
                  ignore (CO.insert q (fst kv) (snd kv))
                end
                else begin
                  match CO.delete_min q with
                  | Some kv -> deleted := kv :: !deleted
                  | None -> ()
                end;
                Machine.work (1 + Rng.int rng 48)
              done)
        done;
        Machine.spawn (fun () ->
            Machine.work (1 lsl 55);
            stats := Some (CO.stats q);
            let populated = CO.check_invariants q in
            let rec go () =
              match CO.delete_min q with
              | Some kv ->
                drained := kv :: !drained;
                go ()
              | None -> ()
            in
            go ();
            structural :=
              Result.bind populated (fun () -> CO.check_invariants q)))
  in
  ok_or_fail !structural;
  check "every inserted element delivered exactly once" true
    (List.sort compare !inserted = List.sort compare (!deleted @ !drained));
  (Option.get !stats, !deleted)

let test_pinned_join_and_link () =
  let s, deleted = run_pinned () in
  check "schedule exercised the join path" true (stat "coalesced_inserts" s > 0);
  check "schedule exercised the capacity-split path" true (stat "node_splits" s > 0);
  let s', deleted' = run_pinned () in
  check "pinned seed replays bit-identically" true
    (s = s' && deleted = deleted')

(* --- timestamped delete-min ---------------------------------------------- *)

(* The same pinned schedule in both modes: a strict delete-min skips nodes
   stamped no earlier than its own start (here some nodes are caught that
   young), a relaxed one never reads a stamp and so never skips; both
   deliver every element exactly once. *)
let test_strict_skips_relaxed_does_not () =
  let strict, _ = run_pinned ~mode:CO.Strict () in
  check "strict mode skipped a too-young node" true (stat "stale_skips" strict > 0);
  let relaxed, _ = run_pinned ~mode:CO.Relaxed () in
  check_int "relaxed mode never skips" 0 (stat "stale_skips" relaxed)

(* --- batch hunt ---------------------------------------------------------- *)

let test_one_node_fulfils_batch () =
  (* Five same-key elements coalesced into one node: a want-4 batch must
     be satisfied out of that single node in ONE hunt pass, FIFO order. *)
  in_sim (fun () ->
      let q = CO.create ~capacity:8 () in
      for i = 1 to 5 do
        ignore (CO.insert q 5 i)
      done;
      ignore (CO.insert q 9 99);
      check_int "all five coalesced" 4 (stat "coalesced_inserts" (CO.stats q));
      let before = stat "hunt_passes" (CO.stats q) in
      let batch = CO.hunt_batch q ~want:4 in
      let claims = CO.batch_claims batch in
      CO.finish_batch q batch;
      Alcotest.(check (list (pair int int)))
        "one node fills the batch, FIFO"
        [ (5, 1); (5, 2); (5, 3); (5, 4) ]
        claims;
      check_int "one hunt pass for the whole batch" (before + 1)
        (stat "hunt_passes" (CO.stats q));
      check "fifth element still queued" true (CO.delete_min q = Some (5, 5));
      check "then the next key" true (CO.delete_min q = Some (9, 99));
      ok_or_fail (CO.check_invariants q))

(* --- native domains ------------------------------------------------------ *)

(* Two domains, duplicate-heavy keys, capacity 4: joins, claims, unlinks
   and the fetch-and-add releases race on real words.  After the drain
   every inserted element has come out exactly once. *)
let test_native_two_domains () =
  let procs = 2 and ops = 50_000 in
  let q = CO_native.create ~mode:CO_native.Strict ~capacity:4 ~seed:11L () in
  let inserted = Array.make procs [] and deleted = Array.make procs [] in
  Native_rt.run_processors procs (fun p ->
      let rng = Rng.of_seed (Int64.of_int (2000 + p)) in
      for i = 0 to ops - 1 do
        if Rng.int rng 100 < 55 then begin
          let kv = (Rng.int rng 64, (p * 1_000_000) + i) in
          inserted.(p) <- kv :: inserted.(p);
          ignore (CO_native.insert q (fst kv) (snd kv))
        end
        else
          match CO_native.delete_min q with
          | Some kv -> deleted.(p) <- kv :: deleted.(p)
          | None -> ()
      done);
  ok_or_fail (CO_native.check_invariants q);
  let rec drain acc =
    match CO_native.delete_min q with Some kv -> drain (kv :: acc) | None -> acc
  in
  let drained = drain [] in
  ok_or_fail (CO_native.check_invariants q);
  let all a = List.concat (Array.to_list a) in
  check "every inserted element came out exactly once" true
    (List.sort compare (all inserted) = List.sort compare (drained @ all deleted))

(* --- registry ------------------------------------------------------------- *)

let test_registry_names () =
  List.iter
    (fun name ->
      check (Printf.sprintf "sim registry lists %s" name) true
        (List.mem name (QA.names QA.Sim));
      check (Printf.sprintf "native registry lists %s" name) true
        (List.mem name (QA.names QA.Native)))
    [
      "SkipQueue-co"; "Relaxed SkipQueue-co"; "SkipQueue-co-elim"; "bounded:SkipQueue-co";
    ];
  check "SkipQueue-co keeps duplicates" false (QA.find QA.Sim "SkipQueue-co").QA.dedups

let () =
  Alcotest.run "skipqueue_co"
    [
      ( "lockword",
        [
          QCheck_alcotest.to_alcotest roundtrip_prop;
          QCheck_alcotest.to_alcotest accessors_prop;
          QCheck_alcotest.to_alcotest level_lock_prop;
          QCheck_alcotest.to_alcotest ticket_prop;
          Alcotest.test_case "full lock, bounds and discipline" `Quick
            test_lockword_basics;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "join then split at capacity" `Quick
            test_join_then_split_at_capacity;
          Alcotest.test_case "re-insert after a node drains" `Quick
            test_reinsert_after_node_drained;
          Alcotest.test_case "a release is one swap" `Quick test_release_is_one_swap;
        ] );
      ( "model",
        [
          QCheck_alcotest.to_alcotest conservation_prop;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "pinned seed joins and links" `Quick
            test_pinned_join_and_link;
        ] );
      ( "timestamped",
        [
          Alcotest.test_case "strict mode skips, relaxed never" `Quick
            test_strict_skips_relaxed_does_not;
        ] );
      ( "batch",
        [
          Alcotest.test_case "one coalesced node fulfils a batch" `Quick
            test_one_node_fulfils_batch;
        ] );
      ( "native",
        [ Alcotest.test_case "two domains conserve the multiset" `Quick test_native_two_domains ] );
      ( "registry",
        [ Alcotest.test_case "co names registered" `Quick test_registry_names ] );
    ]
