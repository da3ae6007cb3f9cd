(* Tests for the SkipQueue itself: sequential semantics, simulated
   concurrent stress with oracle checking, native-domain stress, the
   strict/relaxed timestamp distinction, the hunt's per-step accesses
   (the coalescing queue's too), and reclamation safety. *)

module Machine = Repro_sim.Machine
module Sim_rt = Repro_sim.Sim_runtime
module Native_rt = Repro_runtime.Native_runtime
module Rng = Repro_util.Rng

module SQ_sim = Repro_skipqueue.Skipqueue.Make (Sim_rt)
module SQ_native = Repro_skipqueue.Skipqueue.Make (Native_rt)
module Oracle = Repro_pqueue.Oracle
module CO_sim = Repro_skipqueue.Skipqueue_co.Make (Sim_rt)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let stat name stats = int_of_float (List.assoc name stats)

let ok_or_fail = function Ok () -> () | Error msg -> Alcotest.fail msg

let in_sim f =
  let result = ref None in
  let (_ : Machine.report) = Machine.run (fun () -> result := Some (f ())) in
  Option.get !result

(* --- sequential behaviour (single virtual processor) ------------------- *)

let test_insert_delete_min_ordered () =
  in_sim (fun () ->
      let q = SQ_sim.create () in
      List.iter (fun k -> ignore (SQ_sim.insert q k (10 * k))) [ 5; 1; 9; 3; 7 ];
      let order = ref [] in
      let rec drain () =
        match SQ_sim.delete_min q with
        | None -> ()
        | Some (k, v) ->
          check_int "value follows key" (10 * k) v;
          order := k :: !order;
          drain ()
      in
      drain ();
      Alcotest.(check (list int)) "ascending drain" [ 1; 3; 5; 7; 9 ] (List.rev !order))

let test_empty_returns_none () =
  in_sim (fun () ->
      let q = SQ_sim.create () in
      check "empty" true (SQ_sim.delete_min q = None);
      ignore (SQ_sim.insert q 1 1);
      ignore (SQ_sim.delete_min q);
      check "empty again" true (SQ_sim.delete_min q = None))

let test_update_in_place () =
  in_sim (fun () ->
      let q = SQ_sim.create () in
      Alcotest.(check bool) "first" true (SQ_sim.insert q 42 1 = `Inserted);
      Alcotest.(check bool) "second" true (SQ_sim.insert q 42 2 = `Updated);
      check_int "size 1" 1 (SQ_sim.size q);
      check "updated value" true (SQ_sim.delete_min q = Some (42, 2)))

let test_find_and_delete () =
  in_sim (fun () ->
      let q = SQ_sim.create () in
      List.iter (fun k -> ignore (SQ_sim.insert q k k)) [ 2; 4; 6 ];
      check "find hit" true (SQ_sim.find q 4 = Some 4);
      check "find miss" true (SQ_sim.find q 5 = None);
      check "delete hit" true (SQ_sim.delete q 4 = Some 4);
      check "find after delete" true (SQ_sim.find q 4 = None);
      check "delete miss" true (SQ_sim.delete q 4 = None);
      ok_or_fail (SQ_sim.check_invariants q);
      check_int "size" 2 (SQ_sim.size q))

let test_many_sequential_ops_invariants () =
  in_sim (fun () ->
      let q = SQ_sim.create ~seed:7L () in
      let rng = Rng.of_seed 11L in
      let model = Hashtbl.create 64 in
      for i = 0 to 999 do
        let key = Rng.int rng 500 in
        if Rng.bool rng then begin
          ignore (SQ_sim.insert q key i);
          Hashtbl.replace model key i
        end
        else begin
          let expected =
            Hashtbl.fold (fun k _ acc -> Int.min k acc) model max_int
          in
          match SQ_sim.delete_min q with
          | None -> check "model empty too" true (Hashtbl.length model = 0)
          | Some (k, _) ->
            check_int "matches model min" expected k;
            Hashtbl.remove model k
        end
      done;
      ok_or_fail (SQ_sim.check_invariants q);
      check_int "size matches model" (Hashtbl.length model) (SQ_sim.size q))

(* --- simulated concurrency -------------------------------------------- *)

(* [procs] virtual processors each run [ops] random operations; every
   completed operation is recorded and the history is checked against the
   oracle, then the structure is drained and conservation verified. *)
let stress_sim ~mode ~procs ~ops ~key_range ~seed () =
  let events = Array.make procs [] in
  let drained = ref [] in
  let initial = ref [] in
  let q_invariants = ref (Ok ()) in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = SQ_sim.create ~mode ~seed () in
        (* Keys are made globally unique (random base * stride + unique
           suffix) so that the paper's update-in-place semantics never
           replaces an element — the oracle's conservation accounting
           needs stable (key, id) identities.  Contention is preserved:
           a small [key_range] still clusters keys at the bottom level. *)
        let stride = (procs * ops) + 100 in
        let root_rng = Rng.of_seed seed in
        for i = 0 to 19 do
          let key = (Rng.int root_rng key_range * stride) + (procs * ops) + i in
          let id = 900_000_000 + i in
          if SQ_sim.insert q key id = `Inserted then
            initial := (key, id) :: !initial
        done;
        for p = 0 to procs - 1 do
          let rng = Rng.of_seed (Int64.add seed (Int64.of_int (p + 1))) in
          Machine.spawn (fun () ->
              for i = 0 to ops - 1 do
                let id = (p * 1_000_000) + i in
                if Rng.bool rng then begin
                  let key = (Rng.int rng key_range * stride) + (p * ops) + i in
                  let invoked = Machine.get_time () in
                  let outcome = SQ_sim.insert q key id in
                  let responded = Machine.get_time () in
                  if outcome = `Inserted then
                    events.(p) <-
                      { Oracle.proc = p; op = Oracle.Insert { key; id }; invoked; responded }
                      :: events.(p)
                end
                else begin
                  let invoked = Machine.get_time () in
                  let result = SQ_sim.delete_min q in
                  let responded = Machine.get_time () in
                  events.(p) <-
                    { Oracle.proc = p; op = Oracle.Delete_min { result }; invoked; responded }
                    :: events.(p)
                end
              done)
        done;
        (* Drain after all workers are done: respawn a drainer from the
           root once every worker has finished.  The machine joins
           processes for us, so drain in a process spawned after the
           others complete; simplest is to drain in the root after run —
           but operations need sim context, so instead check quiescently
           here via a dedicated final processor. *)
        Machine.spawn (fun () ->
            (* This processor starts at the same simulated time as the
               workers; to run after them, first wait out a conservative
               bound of simulated cycles.  Cheaper and exact: busy-wait on
               nothing — we instead drain lazily: keep trying until the
               queue stays empty.  For determinism in tests we simply burn
               a large amount of local work first. *)
            Machine.work 500_000_000;
            q_invariants := SQ_sim.check_invariants q;
            let rec drain () =
              match SQ_sim.delete_min q with
              | None -> ()
              | Some (k, id) ->
                drained := (k, id) :: !drained;
                drain ()
            in
            drain ()))
  in
  let events = Array.to_list events |> List.concat in
  (* Initial elements are synthesized as inserts that precede everything. *)
  let initial_events =
    List.map
      (fun (key, id) ->
        { Oracle.proc = 999; op = Oracle.Insert { key; id }; invoked = 0; responded = 0 })
      !initial
  in
  ok_or_fail !q_invariants;
  ok_or_fail (Oracle.check_well_formed events);
  ok_or_fail
    (Oracle.check_conservation ~initial:!initial ~drained:(List.rev !drained) events);
  ok_or_fail (Oracle.check_strict (initial_events @ events))

let test_stress_strict_small () =
  stress_sim ~mode:SQ_sim.Strict ~procs:8 ~ops:60 ~key_range:100 ~seed:21L ()

let test_stress_strict_large () =
  stress_sim ~mode:SQ_sim.Strict ~procs:32 ~ops:40 ~key_range:10_000 ~seed:22L ()

let test_stress_relaxed () =
  stress_sim ~mode:SQ_sim.Relaxed ~procs:16 ~ops:50 ~key_range:1_000 ~seed:23L ()

let test_stress_many_procs () =
  stress_sim ~mode:SQ_sim.Strict ~procs:64 ~ops:15 ~key_range:64 ~seed:24L ()

(* The timestamp mechanism, deterministically: a slow insert of a smaller
   key runs concurrently with a delete_min.  The strict queue must ignore
   the in-flight insert and return the pre-existing key; the relaxed queue
   is allowed to grab the smaller one.  The simulator makes the schedule
   reproducible. *)
let test_strict_ignores_concurrent_insert () =
  let result = ref None in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = SQ_sim.create ~mode:SQ_sim.Strict () in
        ignore (SQ_sim.insert q 100 100);
        Machine.spawn (fun () ->
            (* starts the insert of the smaller key immediately *)
            ignore (SQ_sim.insert q 5 5));
        Machine.spawn (fun () ->
            (* With no delay, this delete_min's clock read happens before
               the concurrent insert completes, so 5 is invisible. *)
            result := SQ_sim.delete_min q))
  in
  check "strict returns pre-existing min" true (!result = Some (100, 100))

let test_relaxed_may_take_concurrent_insert () =
  (* Sanity for the relaxed mode: delayed delete_min that starts after the
     small insert completed must take 5 in both modes. *)
  let result = ref None in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = SQ_sim.create ~mode:SQ_sim.Relaxed () in
        ignore (SQ_sim.insert q 100 100);
        Machine.spawn (fun () -> ignore (SQ_sim.insert q 5 5));
        Machine.spawn (fun () ->
            Machine.work 100_000;
            result := SQ_sim.delete_min q))
  in
  check "relaxed takes the smaller key" true (!result = Some (5, 5))

(* --- negative keys --------------------------------------------------------- *)

let test_negative_keys () =
  in_sim (fun () ->
      let q = SQ_sim.create () in
      List.iter (fun k -> ignore (SQ_sim.insert q k k)) [ 314; -50; 271; min_int; 0 ];
      check "negative min first" true (SQ_sim.delete_min q = Some (min_int, min_int));
      check "then -50" true (SQ_sim.delete_min q = Some (-50, -50));
      check "then 0" true (SQ_sim.delete_min q = Some (0, 0));
      match SQ_sim.check_invariants q with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

(* --- peek_min ----------------------------------------------------------- *)

let test_peek_min () =
  in_sim (fun () ->
      let q = SQ_sim.create () in
      check "empty peek" true (SQ_sim.peek_min q = None);
      ignore (SQ_sim.insert q 8 80);
      ignore (SQ_sim.insert q 3 30);
      check "peek" true (SQ_sim.peek_min q = Some (3, 30));
      check_int "peek does not remove" 2 (SQ_sim.size q);
      ignore (SQ_sim.delete_min q);
      check "peek after delete" true (SQ_sim.peek_min q = Some (8, 80)))

(* --- the SkipQueue as an ordered map: insert/find/delete by key ------ *)

let test_map_sequential () =
  in_sim (fun () ->
      let m = SQ_sim.create () in
      check "inserted" true (SQ_sim.insert m 2 "b" = `Inserted);
      ignore (SQ_sim.insert m 1 "a");
      ignore (SQ_sim.insert m 3 "c");
      check "updated" true (SQ_sim.insert m 2 "B" = `Updated);
      check "find" true (SQ_sim.find m 2 = Some "B");
      check "find another" true (SQ_sim.find m 3 = Some "c");
      check "min" true (SQ_sim.peek_min m = Some (1, "a"));
      check "remove" true (SQ_sim.delete m 1 = Some "a");
      check "removed" true (SQ_sim.find m 1 = None);
      check "remove missing" true (SQ_sim.delete m 1 = None);
      Alcotest.(check (list (pair int string)))
        "to_list" [ (2, "B"); (3, "c") ] (SQ_sim.to_list m);
      match SQ_sim.check_invariants m with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_map_concurrent_removes_unique () =
  (* Many processors race to remove the same keys: each key removed at
     most once. *)
  let removed = Array.make 100 0 in
  let invariants = ref (Ok ()) in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let m = SQ_sim.create ~seed:17L () in
        for k = 0 to 99 do
          ignore (SQ_sim.insert m k k)
        done;
        for _ = 1 to 16 do
          Machine.spawn (fun () ->
              for k = 0 to 99 do
                match SQ_sim.delete m k with
                | Some _ -> removed.(k) <- removed.(k) + 1
                | None -> ()
              done)
        done;
        Machine.spawn (fun () ->
            Machine.work 500_000_000;
            invariants := SQ_sim.check_invariants m))
  in
  (match !invariants with Ok () -> () | Error e -> Alcotest.fail e);
  Array.iteri
    (fun k count ->
      if count <> 1 then
        Alcotest.failf "key %d removed %d times" k count)
    removed

(* --- instrumentation counters --------------------------------------------- *)

let test_stats_counters () =
  (* strict mode: deletes walk nodes and may skip young ones; relaxed mode
     never records stale skips. *)
  let strict_stats = ref None and relaxed_stats = ref None in
  let exercise mode sink =
    let (_ : Machine.report) =
      Machine.run (fun () ->
          let q = SQ_sim.create ~mode ~seed:31L () in
          for i = 0 to 19 do
            ignore (SQ_sim.insert q i i)
          done;
          for _ = 1 to 8 do
            Machine.spawn (fun () ->
                for i = 0 to 9 do
                  if i land 1 = 0 then ignore (SQ_sim.delete_min q)
                  else ignore (SQ_sim.insert q (100 + i) i)
                done)
          done;
          Machine.spawn (fun () ->
              Machine.work 100_000_000;
              sink := Some (SQ_sim.stats q)))
    in
    ()
  in
  exercise SQ_sim.Strict strict_stats;
  exercise SQ_sim.Relaxed relaxed_stats;
  let strict = Option.get !strict_stats and relaxed = Option.get !relaxed_stats in
  check "strict hunts recorded" true (stat "hunt_steps" strict > 0);
  check "relaxed hunts recorded" true (stat "hunt_steps" relaxed > 0);
  check_int "relaxed never stale-skips" 0 (stat "stale_skips" relaxed);
  check "hunt steps >= successful deletes" true (stat "hunt_steps" strict >= 40)

(* Fig. 11's hunt reads, per node, only the stamp (strict mode), the SWAP
   target and [next], and stops at the tail by identity.  Leave [k]
   claimed-but-linked nodes at the front (a [hunt_batch] whose
   [finish_batch] never runs), then trace the next hunt's accesses: after
   the head's [next], each marked node costs [Swap; Read] (relaxed) or
   [Read; Swap; Read] (strict), and the only key read is the claimed
   node's, after its SWAP is won.  In the coalescing queue a dead node
   costs its word read plus [next] in either mode, and the winner reads
   the key after its claim CAS, then the slab, then SWAP-marks the node
   its claim exhausted. *)
let test_hunt_cost_per_marked_node () =
  let open Repro_sim.Memory_model in
  let kind =
    Alcotest.testable
      (fun ppf k ->
        Format.pp_print_string ppf
          (match k with Read -> "read" | Write -> "write" | Swap -> "swap"))
      ( = )
  in
  let traced body =
    let counting = ref false and kinds = ref [] in
    let tracer = function
      | Repro_sim.Trace.Accessed { kind; _ } when !counting ->
        kinds := kind :: !kinds
      | _ -> ()
    in
    let measured f =
      counting := true;
      let r = f () in
      counting := false;
      r
    in
    let (_ : Machine.report) = Machine.run ~tracer (fun () -> body measured) in
    List.rev !kinds
  in
  let claims = Alcotest.(list (pair int int)) in
  let skipqueue mode k =
    traced (fun measured ->
        let q = SQ_sim.create ~mode ~seed:3L () in
        for i = 1 to k + 2 do
          ignore (SQ_sim.insert q i i)
        done;
        let (_ : int SQ_sim.batch) = SQ_sim.hunt_batch q ~want:k in
        let b = measured (fun () -> SQ_sim.hunt_batch q ~want:1) in
        Alcotest.check claims "claims the first unmarked node"
          [ (k + 1, k + 1) ] (SQ_sim.batch_claims b))
  in
  let co mode k =
    traced (fun measured ->
        let q = CO_sim.create ~mode ~seed:3L () in
        for i = 1 to k + 2 do
          ignore (CO_sim.insert q i i)
        done;
        let (_ : int CO_sim.batch) = CO_sim.hunt_batch q ~want:k in
        let b = measured (fun () -> CO_sim.hunt_batch q ~want:1) in
        Alcotest.check claims "claims the first live node" [ (k + 1, k + 1) ]
          (CO_sim.batch_claims b))
  in
  let rec repeat n l = if n = 0 then [] else l @ repeat (n - 1) l in
  List.iter
    (fun k ->
      let check name expected actual =
        Alcotest.check (Alcotest.list kind)
          (Printf.sprintf "%s, %d marked" name k) expected actual
      in
      check "relaxed" ([ Read ] @ repeat k [ Swap; Read ] @ [ Swap; Read; Read ])
        (skipqueue SQ_sim.Relaxed k);
      check "strict"
        ([ Read ] @ repeat k [ Read; Swap; Read ] @ [ Read; Swap; Read; Read ])
        (skipqueue SQ_sim.Strict k);
      check "relaxed co"
        ([ Read ] @ repeat k [ Read; Read ] @ [ Read; Swap; Read; Read; Swap ])
        (co CO_sim.Relaxed k);
      check "strict co"
        ([ Read ] @ repeat k [ Read; Read ]
        @ [ Read; Read; Swap; Read; Read; Swap ])
        (co CO_sim.Strict k))
    [ 0; 1; 5 ]

(* --- reclamation -------------------------------------------------------- *)

let test_reclamation_safety () =
  let stats = ref None in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let recl = SQ_sim.Reclaim.create () in
        let q = SQ_sim.create ~reclamation:recl () in
        for i = 0 to 49 do
          ignore (SQ_sim.insert q i i)
        done;
        for p = 0 to 3 do
          ignore p;
          Machine.spawn (fun () ->
              for _ = 0 to 9 do
                ignore (SQ_sim.delete_min q)
              done)
        done;
        (* Collector processor: loop a few passes spread over time. *)
        Machine.spawn (fun () ->
            for _ = 0 to 20 do
              Machine.work 5_000;
              ignore (SQ_sim.Reclaim.collect recl)
            done;
            (* After everything quiesced, one final pass reclaims all. *)
            Machine.work 10_000_000;
            ignore (SQ_sim.Reclaim.collect recl);
            stats := Some (SQ_sim.Reclaim.stats recl);
            (* Nothing reclaimed prematurely: the live structure must not
               contain poisoned nodes. *)
            match SQ_sim.check_invariants q with
            | Ok () -> ()
            | Error e -> Alcotest.fail e))
  in
  match !stats with
  | None -> Alcotest.fail "collector never ran"
  | Some s ->
    check_int "everything retired got reclaimed" 40 (stat "reclaimed" s);
    check_int "nothing pending" 0 (stat "pending" s)

let test_reclamation_under_churn () =
  (* Seeded churn with reclamation active: deletions retire nodes and
     collector passes run concurrently with the churn, while hunters walk
     the bottom level (peek_min) and probe keys (find) throughout.  A node
     reclaimed too early, i.e. while a hunter could still reach it, would
     surface either as a wrong find/peek answer during the run or as a
     reachable poisoned node in the quiescent invariant check. *)
  let reclaimed = ref None in
  let errors = ref [] in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let recl = SQ_sim.Reclaim.create () in
        let q = SQ_sim.create ~seed:99L ~reclamation:recl () in
        for i = 0 to 63 do
          ignore (SQ_sim.insert q i i)
        done;
        (* Churners: deletes retire the cheap initial keys while inserts
           (distinct high keys, value = key) refill. *)
        for p = 0 to 3 do
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.of_int (100 + p)) in
              for round = 0 to 39 do
                Machine.work (Rng.int rng 400);
                if round land 1 = 0 then ignore (SQ_sim.delete_min q)
                else
                  let key = ((p + 1) * 10_000) + round in
                  ignore (SQ_sim.insert q key key)
              done)
        done;
        (* Hunters: traverse concurrently; a reclaimed node still in reach
           would hand them a poisoned binding. *)
        for h = 0 to 1 do
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.of_int (500 + h)) in
              for _ = 0 to 59 do
                Machine.work (Rng.int rng 300);
                (match SQ_sim.peek_min q with
                | None -> ()
                | Some (k, v) ->
                  if k <> v then
                    errors := Printf.sprintf "peek saw %d -> %d" k v :: !errors);
                let probe = Rng.int rng 64 in
                match SQ_sim.find q probe with
                | None -> ()
                | Some v ->
                  if v <> probe then
                    errors := Printf.sprintf "find %d got %d" probe v :: !errors
              done)
        done;
        (* Collector: frequent passes during the churn, then a final one. *)
        Machine.spawn (fun () ->
            for _ = 0 to 40 do
              Machine.work 2_000;
              ignore (SQ_sim.Reclaim.collect recl)
            done;
            Machine.work 10_000_000;
            ignore (SQ_sim.Reclaim.collect recl);
            (match SQ_sim.check_invariants q with
            | Ok () -> ()
            | Error e -> errors := e :: !errors);
            reclaimed := Some (stat "reclaimed" (SQ_sim.Reclaim.stats recl))))
  in
  (match !errors with
  | [] -> ()
  | e :: _ -> Alcotest.fail e);
  check "collector reclaimed nodes" true (Option.get !reclaimed > 0)

(* --- qcheck model ------------------------------------------------------- *)

(* Random op sequences against a replace-on-duplicate map model.  The
   SkipQueue overwrites the value of a key already present (`Updated`),
   so a duplicate-keeping heap is the wrong oracle — a Map is the right
   one.  Single-processor runs must agree exactly in both modes: the
   strict/relaxed distinction only exists under concurrency. *)
let qcheck_matches_map_model mode mode_name =
  let module M = Map.Make (Int) in
  let gen = QCheck.(list_of_size Gen.(int_range 0 200) (int_range (-1) 60)) in
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "%s SkipQueue matches map model" mode_name) gen
    (fun ops ->
      let ok = ref false in
      let (_ : Machine.report) =
        Machine.run (fun () ->
            let q = SQ_sim.create ~mode () in
            let model = ref M.empty in
            List.iteri
              (fun i op ->
                if op < 0 then begin
                  let want =
                    match M.min_binding_opt !model with
                    | None -> None
                    | Some (k, v) ->
                      model := M.remove k !model;
                      Some (k, v)
                  in
                  if SQ_sim.delete_min q <> want then
                    QCheck.Test.fail_reportf "delete-min mismatch at op %d" i
                end
                else begin
                  let want = if M.mem op !model then `Updated else `Inserted in
                  if SQ_sim.insert q op i <> want then
                    QCheck.Test.fail_reportf "insert status mismatch at op %d" i;
                  model := M.add op i !model
                end)
              ops;
            ok_or_fail (SQ_sim.check_invariants q);
            ok := SQ_sim.to_list q = M.bindings !model)
      in
      !ok)

let qcheck_strict_matches_model = qcheck_matches_map_model SQ_sim.Strict "strict"
let qcheck_relaxed_matches_model = qcheck_matches_map_model SQ_sim.Relaxed "relaxed"

(* --- native domains ----------------------------------------------------- *)

let test_native_sequential () =
  let q = SQ_native.create () in
  List.iter (fun k -> ignore (SQ_native.insert q k k)) [ 3; 1; 2 ];
  check "native min" true (SQ_native.delete_min q = Some (1, 1));
  check "native next" true (SQ_native.delete_min q = Some (2, 2));
  ok_or_fail (SQ_native.check_invariants q)

let test_native_stress () =
  let procs = 4 and ops = 2_000 in
  let q = SQ_native.create ~seed:99L () in
  let deleted = Array.make procs [] in
  let inserted = Array.make procs [] in
  Native_rt.run_processors procs (fun p ->
      let rng = Rng.of_seed (Int64.of_int (1000 + p)) in
      for i = 0 to ops - 1 do
        let id = (p * 1_000_000) + i in
        if Rng.bool rng then begin
          (* globally unique keys (see the simulated stress for why) *)
          let key = (Rng.int rng 5_000 * ((procs * ops) + 1)) + (p * ops) + i in
          if SQ_native.insert q key id = `Inserted then
            inserted.(p) <- (key, id) :: inserted.(p)
        end
        else
          match SQ_native.delete_min q with
          | Some (k, v) -> deleted.(p) <- (k, v) :: deleted.(p)
          | None -> ()
      done);
  ok_or_fail (SQ_native.check_invariants q);
  let drained = ref [] in
  let rec drain () =
    match SQ_native.delete_min q with
    | None -> ()
    | Some kv ->
      drained := kv :: !drained;
      drain ()
  in
  drain ();
  let module S = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let all_in = S.of_list (Array.to_list inserted |> List.concat) in
  let all_out =
    S.union (S.of_list (Array.to_list deleted |> List.concat)) (S.of_list !drained)
  in
  check "no lost or invented elements" true (S.equal all_in all_out)

let () =
  Alcotest.run "skipqueue"
    [
      ( "sequential",
        [
          Alcotest.test_case "ordered drain" `Quick test_insert_delete_min_ordered;
          Alcotest.test_case "empty" `Quick test_empty_returns_none;
          Alcotest.test_case "update in place" `Quick test_update_in_place;
          Alcotest.test_case "find and delete" `Quick test_find_and_delete;
          Alcotest.test_case "1000 ops vs model" `Quick test_many_sequential_ops_invariants;
          QCheck_alcotest.to_alcotest qcheck_strict_matches_model;
          QCheck_alcotest.to_alcotest qcheck_relaxed_matches_model;
        ] );
      ( "simulated-concurrency",
        [
          Alcotest.test_case "stress strict small keys" `Quick test_stress_strict_small;
          Alcotest.test_case "stress strict large keys" `Quick test_stress_strict_large;
          Alcotest.test_case "stress relaxed" `Quick test_stress_relaxed;
          Alcotest.test_case "stress 64 processors" `Quick test_stress_many_procs;
          Alcotest.test_case "strict ignores concurrent insert" `Quick
            test_strict_ignores_concurrent_insert;
          Alcotest.test_case "relaxed takes completed insert" `Quick
            test_relaxed_may_take_concurrent_insert;
        ] );
      ( "keys",
        [ Alcotest.test_case "negative keys" `Quick test_negative_keys ] );
      ( "instrumentation",
        [
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "hunt cost per marked node" `Quick
            test_hunt_cost_per_marked_node;
        ] );
      ( "map-view",
        [
          Alcotest.test_case "peek_min" `Quick test_peek_min;
          Alcotest.test_case "sequential map ops" `Quick test_map_sequential;
          Alcotest.test_case "concurrent removes unique" `Quick
            test_map_concurrent_removes_unique;
        ] );
      ( "reclamation",
        [
          Alcotest.test_case "safe reclamation" `Quick test_reclamation_safety;
          Alcotest.test_case "concurrent collector under churn" `Quick
            test_reclamation_under_churn;
        ] );
      ( "native",
        [
          Alcotest.test_case "sequential" `Quick test_native_sequential;
          Alcotest.test_case "4-domain stress" `Quick test_native_stress;
        ] );
    ]
