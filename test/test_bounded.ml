(* Tests for lib/bounded: the two-lock bounded/blocking façade.  A qcheck
   model test drives random producer/consumer populations through the
   façade on the simulator and checks conservation, the capacity bound
   and exact quiescence (no lost wakeups: every blocking call returns);
   a seed-pinned run nails down the park/wake schedule. *)

module Machine = Repro_sim.Machine
module Sim_rt = Repro_sim.Sim_runtime
module Bounded = Repro_bounded.Bounded_queue.Make (Repro_sim.Sim_runtime)
module SQ = Repro_skipqueue.Skipqueue.Make (Repro_sim.Sim_runtime) (Repro_pqueue.Key.Int)
module Rng = Repro_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* One complete producer/consumer run on the simulator: [producers] each
   insert their share of [items] unique keys through [insert_wait],
   [consumers] drain exact quotas through [delete_min_wait].  Returns the
   multiset of popped keys (as a sorted list), the façade stats, and the
   maximum façade size ever observed by a consumer. *)
let run_population ~seed ~producers ~consumers ~items ~capacity ~backend_dedups =
  let popped = ref [] in
  let max_seen = ref 0 in
  let stats = ref [] in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let sq = SQ.create () in
        let b =
          Bounded.create ~capacity ~dedups:backend_dedups ~name:"b"
            ~insert:(fun k v -> ignore (SQ.insert sq k v))
            ~try_delete_min:(fun () -> SQ.delete_min sq)
            ()
        in
        for p = 0 to producers - 1 do
          let count = (items / producers) + if p < items mod producers then 1 else 0 in
          let base = (p * (items / producers)) + Int.min p (items mod producers) in
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.add seed (Int64.of_int p)) in
              for i = 0 to count - 1 do
                (* unique keys: random high bits, item number low bits *)
                Bounded.insert_wait b ((Rng.int rng 64 lsl 12) lor (base + i)) (base + i);
                Machine.work (1 + Rng.int rng 40)
              done)
        done;
        for c = 0 to consumers - 1 do
          let quota = (items / consumers) + if c < items mod consumers then 1 else 0 in
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.add seed (Int64.of_int (1000 + c))) in
              for _ = 1 to quota do
                let k, _ = Bounded.delete_min_wait b in
                popped := k :: !popped;
                let s = Bounded.size b in
                if s > !max_seen then max_seen := s;
                Machine.work (1 + Rng.int rng 120)
              done)
        done;
        Machine.spawn (fun () ->
            Machine.work (1 lsl 50);
            stats := Bounded.stats b;
            (* exact quiescence: everything drained, nobody parked *)
            if Bounded.size b <> 0 then failwith "façade not empty at quiescence"))
  in
  (List.sort compare !popped, !stats, !max_seen)

let qcheck_bounded_model =
  let gen =
    QCheck.(
      quad (int_range 1 4) (* producers *)
        (int_range 1 4) (* consumers *)
        (int_range 1 60) (* items *)
        (int_range 1 6) (* capacity *))
  in
  QCheck.Test.make ~count:40 ~name:"bounded façade: conservation + capacity + quiescence"
    gen
    (fun (producers, consumers, items, capacity) ->
      let seed = Int64.of_int ((producers * 7) + (consumers * 131) + items) in
      let popped, stats, max_seen =
        run_population ~seed ~producers ~consumers ~items ~capacity
          ~backend_dedups:true
      in
      (* conservation: every inserted item came back exactly once (keys are
         unique by construction, so a sorted compare suffices) *)
      if List.length popped <> items then
        QCheck.Test.fail_reportf "popped %d of %d items" (List.length popped) items;
      if List.sort_uniq compare popped <> popped then
        QCheck.Test.fail_reportf "an element was popped twice";
      (* capacity: no consumer ever observed more than [capacity] admitted *)
      if max_seen > capacity then
        QCheck.Test.fail_reportf "size %d observed over capacity %d" max_seen capacity;
      (* the counters exist and are consistent: every park got a wake *)
      let stat k = try int_of_float (List.assoc k stats) with Not_found -> -1 in
      if stat "parks" < 0 || stat "wakes" < 0 || stat "backpressure_stalls" < 0 then
        QCheck.Test.fail_reportf "missing façade counter";
      true)

let test_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Bounded_queue.create: capacity < 1") (fun () ->
      ignore
        (Machine.run (fun () ->
             ignore
               (Bounded.create ~capacity:0
                  ~insert:(fun _ _ -> ())
                  ~try_delete_min:(fun () -> None)
                  ()))))

(* Seed-pinned determinism: the full park/wake schedule — not just the
   totals — is a pure function of the run.  Two identical runs must agree
   on the popped sequence and every façade counter; this is what makes a
   blocking violation replayable from its seed. *)
let test_seed_pinned_determinism () =
  let run () =
    run_population ~seed:42L ~producers:3 ~consumers:2 ~items:40 ~capacity:3
      ~backend_dedups:true
  in
  let p1, s1, m1 = run () in
  let p2, s2, m2 = run () in
  check "popped multiset identical" true (p1 = p2);
  check "stats identical" true (s1 = s2);
  check_int "max observed size identical" m1 m2;
  (* the tight capacity forces both conditions to engage in this schedule *)
  let stat k = int_of_float (List.assoc k s1) in
  check "producers stalled" true (stat "backpressure_stalls" > 0);
  check "consumers parked" true (stat "parks" > 0);
  check "every park was woken" true (stat "wakes" > 0)

(* A consumer can pop an in-flight insert's element (in the backend, not
   yet credited to [size]) and spend a completed insert's credit on it.
   The completed insert's element then sits in the backend under a zero
   size, and a non-blocking take must still find it: answering empty
   there is not linearizable.  The backend here keeps no timestamps, like
   the lock-free SkipQueue, so nothing hides the in-flight element. *)
let test_try_take_under_zero_size () =
  let c1 = ref None and c2 = ref None and final_size = ref (-1) in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let backend = ref [] in
        let b =
          Bounded.create ~capacity:4 ~name:"b"
            ~insert:(fun k v ->
              backend := List.merge compare [ (k, v) ] !backend;
              (* the insert of 10 stalls between the backend and its credit *)
              if k = 10 then Machine.work 10_000)
            ~try_delete_min:(fun () ->
              match !backend with
              | [] -> None
              | kv :: rest ->
                backend := rest;
                Some kv)
            ()
        in
        Machine.spawn (fun () -> Bounded.insert_wait b 20 2);
        Machine.spawn (fun () ->
            Machine.work 100;
            Bounded.insert_wait b 10 1);
        Machine.spawn (fun () ->
            Machine.work 1_000;
            c1 := Bounded.try_delete_min b);
        Machine.spawn (fun () ->
            Machine.work 2_000;
            c2 := Bounded.try_delete_min b);
        Machine.spawn (fun () ->
            Machine.work 100_000;
            final_size := Bounded.size b))
  in
  check "first take pops the in-flight element" true (!c1 = Some (10, 1));
  check "second take finds the completed insert's element" true (!c2 = Some (20, 2));
  check_int "size settles at zero once the credit lands" 0 !final_size

let () =
  Alcotest.run "bounded"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest qcheck_bounded_model;
          Alcotest.test_case "rejects bad capacity" `Quick test_rejects_bad_capacity;
          Alcotest.test_case "seed-pinned determinism" `Quick test_seed_pinned_determinism;
          Alcotest.test_case "non-blocking take under a zero size" `Quick
            test_try_take_under_zero_size;
        ] );
    ]
