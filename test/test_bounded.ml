(* Tests for lib/bounded: the credit-based bounded/blocking façade.  A
   qcheck model test drives random producer/consumer populations through
   the façade on the simulator and checks conservation, the capacity bound
   and exact quiescence (no lost wakeups: every blocking call returns); a
   seed-pinned run nails down the park/wake schedule, and scripted
   schedules pin backend calls outside the locks, the single room
   waiter and each way a credit's pop can miss. *)

module Machine = Repro_sim.Machine
module Sim_rt = Repro_sim.Sim_runtime
module Bounded = Repro_bounded.Bounded_queue.Make (Repro_sim.Sim_runtime)
module SQ = Repro_skipqueue.Skipqueue.Make (Repro_sim.Sim_runtime)
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

(* A list-backed queue for the schedule tests below: [insert] puts the
   element in place at once and then stalls [stall k] cycles before
   returning, so the façade credits it late; [pop] stalls [pop_stall ()]
   cycles before looking.  The list is plain host state, which the
   simulator's one-processor-at-a-time execution keeps consistent. *)
let list_backend ?(stall = fun _ -> 0) ?(pop_stall = fun () -> 0) () =
  let backend = ref [] in
  let insert k v =
    backend := List.merge compare [ (k, v) ] !backend;
    Machine.work (stall k)
  in
  let pop () =
    Machine.work (pop_stall ());
    match !backend with
    | [] -> None
    | kv :: rest ->
      backend := rest;
      Some kv
  in
  (insert, pop)

(* The façade calls the backend outside its end locks: two producers'
   inserts run at the same simulated time, and so do two consumers' pops.
   A façade that called the backend under the push or pop lock would run
   each pair back to back. *)
let test_backend_calls_overlap () =
  let inserts = ref [] and pops = ref [] in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let insert, pop = list_backend () in
        let timed log f x =
          let start = Machine.probe_time () in
          let r = f x in
          Machine.work 5_000;
          log := (start, Machine.probe_time ()) :: !log;
          r
        in
        let b =
          Bounded.create ~capacity:4 ~name:"b"
            ~insert:(fun k v -> timed inserts (insert k) v)
            ~try_delete_min:(timed pops pop) ()
        in
        for p = 0 to 1 do
          Machine.spawn (fun () -> Bounded.insert_wait b (p + 1) p)
        done;
        for _ = 0 to 1 do
          Machine.spawn (fun () ->
              Machine.work 20_000;
              ignore (Bounded.delete_min_wait b))
        done)
  in
  let overlap name = function
    | [ (s1, e1); (s2, e2) ] ->
      check (name ^ " overlap in simulated time") true (Int.max s1 s2 < Int.min e1 e2)
    | l -> Alcotest.failf "%s: %d calls, expected 2" name (List.length l)
  in
  overlap "backend inserts" !inserts;
  overlap "backend pops" !pops

(* Producers queue on the push lock and only its holder parks for room,
   on [not_full] under the pop lock, so a consumer announcing room never
   waits behind the producers.  With no consumer, a full capacity-1
   façade leaves one producer parked on [not_full] and the rest waiting
   for the push lock; a façade whose producers all parked on [not_full]
   would report them all there. *)
let test_one_producer_waits_for_room () =
  match
    Machine.run (fun () ->
        let insert, pop = list_backend () in
        let b = Bounded.create ~capacity:1 ~name:"b" ~insert ~try_delete_min:pop () in
        for p = 0 to 3 do
          Machine.spawn (fun () -> Bounded.insert_wait b p p)
        done)
  with
  | (_ : Machine.report) -> Alcotest.fail "a full façade with no consumer did not deadlock"
  | exception Machine.Deadlock msg ->
    let contains sub =
      let n = String.length sub and m = String.length msg in
      let rec at i = i + n <= m && (String.sub msg i n = sub || at (i + 1)) in
      at 0
    in
    check "three producers parked, two of them on the push lock" true
      (contains "3 processor(s) parked (2 on locks, 1 on conditions)");
    check "the one waiting for room parks under the pop lock" true
      (contains "condition \"b.not_full\" (lock \"b.pop\")")

(* A consumer can pop an in-flight insert's element (in the backend, not
   yet credited) on a completed insert's credit.  The completed insert's
   element then sits in the backend with no credit left for it, and a
   non-blocking take must still find it: answering empty there is not
   linearizable.  With [k] inserts in flight, [k] takes overdraw the item
   credits, to [-k], and the count settles at zero once every credit
   lands.  The backend keeps no timestamps, like the lock-free SkipQueue,
   so nothing hides the in-flight elements. *)
let test_try_take_under_zero_size k () =
  let takes = Array.make (k + 1) None in
  let overdrawn = ref 0 and final_size = ref (-1) in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        (* the inserts of keys 10.. stall between the backend and their credit *)
        let insert, pop = list_backend ~stall:(fun key -> if key < 20 then 10_000 else 0) () in
        let b = Bounded.create ~capacity:(k + 1) ~name:"b" ~insert ~try_delete_min:pop () in
        Machine.spawn (fun () -> Bounded.insert_wait b 20 0);
        for i = 1 to k do
          Machine.spawn (fun () ->
              Machine.work 100;
              Bounded.insert_wait b (9 + i) i)
        done;
        for j = 0 to k do
          Machine.spawn (fun () ->
              Machine.work (1_000 * (j + 1));
              takes.(j) <- Bounded.try_delete_min b)
        done;
        Machine.spawn (fun () ->
            Machine.work (1_000 * (k + 2));
            overdrawn := Bounded.size b);
        Machine.spawn (fun () ->
            Machine.work 100_000;
            final_size := Bounded.size b))
  in
  for j = 0 to k - 1 do
    check
      (Printf.sprintf "take %d pops in-flight element %d" j (10 + j))
      true
      (takes.(j) = Some (10 + j, j + 1))
  done;
  check "last take finds the completed insert's element" true (takes.(k) = Some (20, 0));
  check_int "takes overdraw by the in-flight inserts" (-k) !overdrawn;
  check_int "size settles at zero once the credits land" 0 !final_size

(* A blocking consumer holds a credit while a non-blocking take, finding
   no credit, takes the element that credit counted.  The consumer's pop
   then misses; it must give the credit back and wait for the next
   element — releasing the pop lock, so a later non-blocking take answers
   empty at once — not spin on an empty backend or burn capacity. *)
let test_credit_taken_by_overdraft () =
  let waited = ref None and tried = ref None and final_size = ref (-1) in
  let empty_answer = ref None in
  let first_pop = ref true in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        (* the blocking consumer's first pop stalls before it looks *)
        let pop_stall () =
          if !first_pop then begin
            first_pop := false;
            5_000
          end
          else 0
        in
        let insert, pop = list_backend ~pop_stall () in
        let b = Bounded.create ~capacity:1 ~name:"b" ~insert ~try_delete_min:pop () in
        Machine.spawn (fun () ->
            Bounded.insert_wait b 5 0;
            Machine.work 20_000;
            (* capacity 1: parks unless the overdraft returned the room *)
            Bounded.insert_wait b 7 1);
        Machine.spawn (fun () ->
            Machine.work 1_000;
            waited := Some (Bounded.delete_min_wait b));
        Machine.spawn (fun () ->
            Machine.work 2_000;
            tried := Bounded.try_delete_min b);
        Machine.spawn (fun () ->
            Machine.work 10_000;
            let got = Bounded.try_delete_min b in
            empty_answer := Some (got, Machine.probe_time ()));
        Machine.spawn (fun () ->
            Machine.work 100_000;
            final_size := Bounded.size b))
  in
  check "the non-blocking take gets the counted element" true (!tried = Some (5, 0));
  (match !empty_answer with
  | Some (None, at) -> check "the later take answers before the next insert" true (at < 20_000)
  | _ -> Alcotest.fail "the later take did not answer empty");
  check "the blocking consumer waits for the next one" true (!waited = Some (7, 1));
  check_int "size settles at zero" 0 !final_size

(* A deduplicating backend absorbs an insert of a present key, so its
   item credit has no element behind it.  The consumer that draws it
   burns it — returning its room — and answers from the next credit. *)
let test_stale_credit_burned () =
  let first = ref None and second = ref None and stats = ref [] in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let sq = SQ.create () in
        let b =
          Bounded.create ~capacity:2 ~dedups:true ~name:"b"
            ~insert:(fun k v -> ignore (SQ.insert sq k v))
            ~try_delete_min:(fun () -> SQ.delete_min sq)
            ()
        in
        Machine.spawn (fun () ->
            Bounded.insert_wait b 5 0;
            Bounded.insert_wait b 5 1 (* absorbed: an update in place *);
            Machine.work 10_000;
            second := Some (Bounded.try_delete_min b);
            (* both rooms are free again: neither insert parks *)
            Bounded.insert_wait b 6 2;
            Bounded.insert_wait b 7 3;
            stats := Bounded.stats b);
        Machine.spawn (fun () ->
            Machine.work 5_000;
            first := Some (Bounded.delete_min_wait b)))
  in
  check "the present element carries the update" true (!first = Some (5, 1));
  check "the stale credit answers empty" true (!second = Some None);
  check_int "no producer parked" 0
    (int_of_float (List.assoc "backpressure_stalls" !stats))

let () =
  Alcotest.run "bounded"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest qcheck_bounded_model;
          Alcotest.test_case "rejects bad capacity" `Quick test_rejects_bad_capacity;
          Alcotest.test_case "seed-pinned determinism" `Quick test_seed_pinned_determinism;
          Alcotest.test_case "backend calls overlap" `Quick test_backend_calls_overlap;
          Alcotest.test_case "one producer waits for room" `Quick
            test_one_producer_waits_for_room;
          Alcotest.test_case "non-blocking take under a zero size" `Quick
            (test_try_take_under_zero_size 1);
          Alcotest.test_case "overdraft by three inserts in flight" `Quick
            (test_try_take_under_zero_size 3);
          Alcotest.test_case "credit taken by an overdraft is given back" `Quick
            test_credit_taken_by_overdraft;
          Alcotest.test_case "stale credit burned" `Quick test_stale_credit_burned;
        ] );
    ]
