(* Tests for the native runtime primitives (the simulator backend has its
   own suite in test_sim.ml), and for [charge] on both runtimes. *)

module Native = Repro_runtime.Native_runtime

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_shared_cells () =
  let c = Native.shared 1 in
  check_int "read initial" 1 (Native.read c);
  Native.write c 2;
  check_int "read after write" 2 (Native.read c);
  check_int "swap returns old" 2 (Native.swap c 3);
  check_int "swap stored new" 3 (Native.read c)

let test_clock_monotone () =
  Native.reset_clock ();
  let last = ref (Native.get_time ()) in
  for _ = 1 to 1000 do
    let t = Native.get_time () in
    check "strictly increasing" true (t > !last);
    last := t
  done

let test_clock_total_order_across_domains () =
  Native.reset_clock ();
  let per_domain = Array.make 4 [] in
  Native.run_processors 4 (fun p ->
      for _ = 1 to 500 do
        per_domain.(p) <- Native.get_time () :: per_domain.(p)
      done);
  (* All observed values are distinct across all domains. *)
  let all = Array.to_list per_domain |> List.concat in
  let sorted = List.sort_uniq compare all in
  check_int "all timestamps distinct" (List.length all) (List.length sorted);
  (* And each domain saw a monotone sequence. *)
  Array.iter
    (fun ts ->
      let rec mono = function
        | a :: (b :: _ as rest) -> a > b && mono rest
        | [] | [ _ ] -> true
      in
      check "per-domain monotone" true (mono ts))
    per_domain

let test_run_processors_joins_all () =
  let hits = Atomic.make 0 in
  Native.run_processors 8 (fun _ -> Atomic.incr hits);
  check_int "all bodies ran" 8 (Atomic.get hits)

let test_run_processors_propagates_exception () =
  Alcotest.check_raises "exception from a domain" Exit (fun () ->
      Native.run_processors 3 (fun p -> if p = 1 then raise Exit))

let test_run_processors_rejects_zero () =
  Alcotest.check_raises "zero processors"
    (Invalid_argument "Native_runtime.run_processors") (fun () ->
      Native.run_processors 0 (fun _ -> ()));
  (* refused before any spawn: OCaml would fail mid-way, at the 128th *)
  Alcotest.check_raises "past the domain limit"
    (Invalid_argument
       "Native_runtime.run_processors: 128 domains, at most 127 (OCaml's limit of 128 counts the \
        main domain)") (fun () ->
      Native.run_processors 128 (fun _ -> failwith "spawned"))

let test_locks_mutual_exclusion () =
  let lock = Native.lock_create () in
  let counter = ref 0 in
  Native.run_processors 4 (fun _ ->
      for _ = 1 to 10_000 do
        Native.acquire lock;
        counter := !counter + 1;
        Native.release lock
      done);
  check_int "no lost increments" 40_000 !counter

let test_swap_transfers_tokens () =
  (* Same invariant as the simulator's atomic-swap test, under real
     parallelism: initial value + all tokens = returned values + final. *)
  let c = Native.shared (-1) in
  let returned = Array.make 4 [] in
  Native.run_processors 4 (fun p ->
      for i = 0 to 999 do
        returned.(p) <- Native.swap c ((p * 1000) + i) :: returned.(p)
      done);
  let all = (Native.read c :: (Array.to_list returned |> List.concat)) in
  let expected = List.init 4000 (fun i -> (i / 1000 * 1000) + (i mod 1000)) in
  Alcotest.(check (list int))
    "permutation" (List.sort compare (-1 :: expected)) (List.sort compare all)

let test_fetch_and_add_sums_exactly () =
  (* Every increment lands, and each returns a distinct previous value. *)
  let c = Native.shared 0 in
  let seen = Array.make 2 [] in
  Native.run_processors 2 (fun p ->
      for _ = 1 to 10_000 do
        seen.(p) <- Native.fetch_and_add c 1 :: seen.(p)
      done);
  check_int "no lost increments" 20_000 (Native.read c);
  Alcotest.(check (list int))
    "previous values distinct" (List.init 20_000 Fun.id)
    (List.sort compare (List.concat (Array.to_list seen)))

let test_work_is_finite () =
  (* smoke: work must terminate and cost something bounded *)
  Native.work 0;
  Native.work 1_000_000;
  check "done" true true

(* --- charge ---------------------------------------------------------------- *)

(* On the simulator [charge n] is [n] cycles of local work: the clock
   moves by exactly [n] and no memory access is traced.  Natively it
   returns at once. *)
let test_charge_on_simulator () =
  let module Machine = Repro_sim.Machine in
  let accessed = ref 0 and by_charges = ref (-1) and advanced = ref [] in
  let tracer = function Repro_sim.Trace.Accessed _ -> incr accessed | _ -> () in
  let (_ : Machine.report) =
    Machine.run ~tracer (fun () ->
        List.iter
          (fun n ->
            let before = Machine.probe_time () in
            Repro_sim.Sim_runtime.charge n;
            advanced := (Machine.probe_time () - before) :: !advanced)
          [ 1; 11; 2_000 ];
        by_charges := !accessed;
        (* the sink does see a real access *)
        ignore (Repro_sim.Sim_runtime.read (Repro_sim.Sim_runtime.shared 0)))
  in
  Alcotest.(check (list int)) "clock advances by exactly n" [ 1; 11; 2_000 ] (List.rev !advanced);
  check_int "no memory access traced for charges" 0 !by_charges;
  check_int "the read is traced" 1 !accessed;
  Native.charge 1_000_000

(* --- dense processor ids -------------------------------------------------- *)

let spawn_id () = Domain.join (Domain.spawn Native.self)

let test_ids_reused_by_sequential_domains () =
  ignore (Native.self ());
  let highest = ref 0 in
  for _ = 1 to 2000 do
    highest := Int.max !highest (spawn_id ())
  done;
  (* Only this domain is alive besides the one being spawned. *)
  check "ids stay below the live-domain count" true (!highest <= 1)

let test_raising_domain_gives_id_back () =
  ignore (Native.self ());
  let before = spawn_id () in
  let d = Domain.spawn (fun () -> ignore (Native.self ()); failwith "boom") in
  (match Domain.join d with () -> Alcotest.fail "expected a raise" | exception Failure _ -> ());
  check_int "the raiser's id is free again" before (spawn_id ())

let test_concurrent_domains_distinct_ids () =
  let main = Native.self () in
  let n = 8 in
  let ids = Array.make n (-1) in
  let arrived = Atomic.make 0 in
  Native.run_processors n (fun p ->
      ids.(p) <- Native.self ();
      (* Hold every id until all domains have one. *)
      Atomic.incr arrived;
      while Atomic.get arrived < n do
        Domain.cpu_relax ()
      done);
  let sorted = List.sort_uniq compare (main :: Array.to_list ids) in
  check_int "all distinct" (n + 1) (List.length sorted);
  check "dense: below the live-domain count" true
    (List.for_all (fun id -> id >= 0 && id <= n) sorted)

(* --- Per_proc -------------------------------------------------------------- *)

module Per_proc = Repro_runtime.Per_proc

let test_per_proc_init_gets_id () =
  let t = Per_proc.create (fun id -> id * 10) in
  check_int "id 0" 0 (Per_proc.get t 0);
  check_int "id 7" 70 (Per_proc.get t 7);
  check_int "last id" ((Per_proc.slots - 1) * 10) (Per_proc.get t (Per_proc.slots - 1));
  let seen = ref [] in
  Per_proc.iter (fun v -> seen := v :: !seen) t;
  Alcotest.(check (list int))
    "iter: created values in id order" [ 0; 70; (Per_proc.slots - 1) * 10 ] (List.rev !seen)

let test_per_proc_init_once () =
  let calls = Array.make 4 0 in
  let t =
    Per_proc.create (fun id ->
        calls.(id) <- calls.(id) + 1;
        ref id)
  in
  let first = Per_proc.get t 3 in
  check "same value on every get" true (Per_proc.get t 3 == first);
  check_int "one init for id 3" 1 calls.(3);
  check_int "no init for an id never asked" 0 calls.(2)

let test_per_proc_init_once_concurrent () =
  (* Eight domains ask for the same fresh id at once; a slow [init] widens
     the window in which they all find the slot empty. *)
  for round = 1 to 20 do
    let inits = Atomic.make 0 in
    let t =
      Per_proc.create (fun id ->
          Atomic.incr inits;
          Native.work 20_000;
          ref id)
    in
    let n = 8 in
    let got = Array.make n (ref (-1)) in
    let ready = Atomic.make 0 in
    Native.run_processors n (fun p ->
        Atomic.incr ready;
        while Atomic.get ready < n do
          Domain.cpu_relax ()
        done;
        got.(p) <- Per_proc.get t round);
    check_int "init ran once" 1 (Atomic.get inits);
    check "every domain got the same value" true
      (Array.for_all (fun v -> v == got.(0)) got)
  done

let test_per_proc_rejects_out_of_range () =
  let t = Per_proc.create (fun id -> id) in
  let expect id =
    Alcotest.check_raises (Printf.sprintf "id %d" id)
      (Invalid_argument
         (Printf.sprintf "Per_proc.get: processor id %d outside [0, %d)" id Per_proc.slots))
      (fun () -> ignore (Per_proc.get t id))
  in
  expect Per_proc.slots;
  expect (-1);
  expect (Per_proc.slots + 5)

let () =
  Alcotest.run "native-runtime"
    [
      ( "primitives",
        [
          Alcotest.test_case "shared cells" `Quick test_shared_cells;
          Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
          Alcotest.test_case "clock total order across domains" `Quick
            test_clock_total_order_across_domains;
          Alcotest.test_case "run_processors joins" `Quick test_run_processors_joins_all;
          Alcotest.test_case "exceptions propagate" `Quick
            test_run_processors_propagates_exception;
          Alcotest.test_case "rejects zero procs" `Quick test_run_processors_rejects_zero;
          Alcotest.test_case "lock mutual exclusion" `Quick test_locks_mutual_exclusion;
          Alcotest.test_case "swap transfers tokens" `Quick test_swap_transfers_tokens;
          Alcotest.test_case "fetch_and_add sums exactly" `Quick
            test_fetch_and_add_sums_exactly;
          Alcotest.test_case "work terminates" `Quick test_work_is_finite;
          Alcotest.test_case "charge is local work on the simulator" `Quick
            test_charge_on_simulator;
        ] );
      ( "processor ids",
        [
          Alcotest.test_case "sequential domains reuse ids" `Quick
            test_ids_reused_by_sequential_domains;
          Alcotest.test_case "a raising domain gives its id back" `Quick
            test_raising_domain_gives_id_back;
          Alcotest.test_case "concurrent domains get distinct dense ids" `Quick
            test_concurrent_domains_distinct_ids;
        ] );
      ( "per-proc",
        [
          Alcotest.test_case "init receives the id" `Quick test_per_proc_init_gets_id;
          Alcotest.test_case "init runs once per id" `Quick test_per_proc_init_once;
          Alcotest.test_case "init runs once under racing domains" `Quick
            test_per_proc_init_once_concurrent;
          Alcotest.test_case "out-of-range id names the id" `Quick
            test_per_proc_rejects_out_of_range;
        ] );
    ]
