(* Tests for the Proteus-like simulator: event queue, memory model,
   scheduling, locks, determinism and deadlock detection. *)

module Machine = Repro_sim.Machine
module Memory_model = Repro_sim.Memory_model
module Event_queue = Repro_sim.Event_queue
module Sim_rt = Repro_sim.Sim_runtime
module Sim_barrier = Repro_runtime.Barrier.Make (Repro_sim.Sim_runtime)
module Native_barrier = Repro_runtime.Barrier.Make (Repro_runtime.Native_runtime)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- event queue -------------------------------------------------------- *)

(* The queue's payload is (proc, thunk); tests use the proc field as the
   observable payload and no-op thunks. *)
let eq_insert q ~time ~seq payload =
  Event_queue.insert q ~time ~seq ~proc:payload (fun () -> ())

let eq_pop q =
  if Event_queue.pop q then
    Some (Event_queue.popped_time q, Event_queue.popped_proc q)
  else None

let test_event_queue_order () =
  let q = Event_queue.create () in
  eq_insert q ~time:5 ~seq:1 10;
  eq_insert q ~time:3 ~seq:2 20;
  eq_insert q ~time:5 ~seq:0 30;
  Alcotest.(check (option (pair int int)))
    "min time first" (Some (3, 20)) (eq_pop q);
  Alcotest.(check (option (pair int int)))
    "sequence breaks ties" (Some (5, 30)) (eq_pop q);
  Alcotest.(check (option (pair int int))) "last" (Some (5, 10)) (eq_pop q);
  check_bool "empty" true (eq_pop q = None);
  check_int "empty min_time is the sentinel" max_int (Event_queue.min_time q)

let test_event_queue_fifo_at_equal_times () =
  (* Same-timestamp events must come back in sequence (insertion) order —
     the FIFO tie-break the canonical schedule depends on. *)
  let q = Event_queue.create () in
  let n = 64 in
  (* interleave two timestamps to exercise tie-breaking under mixing *)
  for i = 0 to n - 1 do
    eq_insert q ~time:7 ~seq:(2 * i) (100 + i);
    eq_insert q ~time:9 ~seq:((2 * i) + 1) (200 + i)
  done;
  for i = 0 to n - 1 do
    Alcotest.(check (option (pair int int)))
      (Printf.sprintf "time-7 FIFO slot %d" i)
      (Some (7, 100 + i))
      (eq_pop q)
  done;
  for i = 0 to n - 1 do
    Alcotest.(check (option (pair int int)))
      (Printf.sprintf "time-9 FIFO slot %d" i)
      (Some (9, 200 + i))
      (eq_pop q)
  done;
  check_bool "drained" true (Event_queue.is_empty q)

let test_event_queue_growth () =
  (* Push far past the initial capacity, with a descending-time pattern so
     every insert sifts to the root, then check a full sorted drain. *)
  let q = Event_queue.create ~initial_capacity:8 () in
  let n = 5000 in
  for i = 0 to n - 1 do
    eq_insert q ~time:(n - i) ~seq:i i
  done;
  check_int "all retained" n (Event_queue.length q);
  for expect = 1 to n do
    match eq_pop q with
    | Some (t, _) -> check_int (Printf.sprintf "pop %d" expect) expect t
    | None -> Alcotest.failf "queue empty after %d pops" (expect - 1)
  done;
  check_bool "empty at the end" true (Event_queue.is_empty q)

let test_event_queue_qcheck_model =
  (* Pop order must equal a lexicographic sort of the inserted keys, for
     any interleaving of inserts and pops.  Keys are deduplicated: the
     order among equal (time, seq) keys is unspecified. *)
  QCheck.Test.make ~count:200 ~name:"event queue agrees with sorted-list model"
    QCheck.(
      list (pair (pair small_nat small_nat) (option small_nat)))
    (fun script ->
      let q = Event_queue.create ~initial_capacity:8 () in
      let module M = Map.Make (struct
        type t = int * int

        let compare = compare
      end) in
      let model = ref M.empty in
      let id = ref 0 in
      List.for_all
        (fun ((time, seq), pop_too) ->
          let insert_ok =
            if M.mem (time, seq) !model then true (* skip duplicate keys *)
            else begin
              incr id;
              eq_insert q ~time ~seq !id;
              model := M.add (time, seq) !id !model;
              true
            end
          in
          let pop_ok =
            match pop_too with
            | None -> true
            | Some _ -> (
              match (eq_pop q, M.min_binding_opt !model) with
              | None, None -> true
              | Some (t, v), Some (((mt, _) as key), mv) ->
                model := M.remove key !model;
                t = mt && v = mv
              | Some _, None | None, Some _ -> false)
          in
          insert_ok && pop_ok
          && Event_queue.length q = M.cardinal !model)
        script
      &&
      (* full drain agrees with the model's sorted order *)
      let rec drain () =
        match (eq_pop q, M.min_binding_opt !model) with
        | None, None -> true
        | Some (t, v), Some (((mt, _) as key), mv) ->
          model := M.remove key !model;
          t = mt && v = mv && drain ()
        | Some _, None | None, Some _ -> false
      in
      drain ())

(* --- memory model ------------------------------------------------------- *)

let test_memory_read_caching () =
  let sys = Memory_model.make_system Memory_model.default in
  let meta = Memory_model.make_meta sys ~id:0 in
  let first = Memory_model.access sys meta ~proc:1 ~now:0 Memory_model.Read in
  check_bool "first read misses" false first.hit;
  let second = Memory_model.access sys meta ~proc:1 ~now:100 Memory_model.Read in
  check_bool "second read hits" true second.hit;
  let other = Memory_model.access sys meta ~proc:2 ~now:200 Memory_model.Read in
  check_bool "other proc misses" false other.hit;
  (* Both procs now share the line. *)
  let again = Memory_model.access sys meta ~proc:1 ~now:300 Memory_model.Read in
  check_bool "sharer still hits" true again.hit

let test_memory_write_invalidates () =
  let sys = Memory_model.make_system Memory_model.default in
  let meta = Memory_model.make_meta sys ~id:0 in
  ignore (Memory_model.access sys meta ~proc:1 ~now:0 Memory_model.Read);
  ignore (Memory_model.access sys meta ~proc:2 ~now:50 Memory_model.Write);
  (* The exclusive owner keeps writing in cache... *)
  let owner = Memory_model.access sys meta ~proc:2 ~now:75 Memory_model.Write in
  check_bool "owner writes in cache" true owner.hit;
  (* ...until a sharer reads (downgrade), after which writes miss again. *)
  let reread = Memory_model.access sys meta ~proc:1 ~now:100 Memory_model.Read in
  check_bool "sharer invalidated" false reread.hit;
  let after_downgrade = Memory_model.access sys meta ~proc:2 ~now:150 Memory_model.Write in
  check_bool "downgraded owner must re-fetch" false after_downgrade.hit

let test_memory_hotspot_queues () =
  (* Ten processors swapping the same location at the same instant must be
     serialized by the module occupancy. *)
  let cfg = Memory_model.default in
  let sys = Memory_model.make_system cfg in
  let meta = Memory_model.make_meta sys ~id:0 in
  let finishes =
    List.init 10 (fun p ->
        (Memory_model.access sys meta ~proc:p ~now:0 Memory_model.Swap).finish)
  in
  let sorted = List.sort compare finishes in
  Alcotest.(check (list int)) "strictly increasing" sorted finishes;
  let gap = List.nth finishes 9 - List.nth finishes 0 in
  check_bool "last waits at least 9 occupancy periods" true
    (gap >= 9 * (cfg.Memory_model.occupancy + cfg.Memory_model.swap_extra))

let test_memory_swap_orders () =
  let sys = Memory_model.make_system Memory_model.default in
  let meta = Memory_model.make_meta sys ~id:0 in
  let a = Memory_model.access sys meta ~proc:0 ~now:0 Memory_model.Swap in
  let b = Memory_model.access sys meta ~proc:1 ~now:0 Memory_model.Swap in
  check_bool "second swap starts after first occupies" true (b.start > a.start)

let test_memory_sequential_config_is_flat () =
  let sys = Memory_model.make_system Memory_model.sequential in
  let meta = Memory_model.make_meta sys ~id:0 in
  let a = Memory_model.access sys meta ~proc:0 ~now:0 Memory_model.Read in
  let b = Memory_model.access sys meta ~proc:1 ~now:0 Memory_model.Read in
  check_int "uniform cost a" 1 (a.finish - a.start);
  check_int "uniform cost b" 1 (b.finish - b.start)

(* Record-based reference for the flat line directory (§S17): one heap
   record per line with an explicit sharer list — the representation the
   directory had before it was flattened into columns.  The qcheck model
   test drives both through random register/access sequences and demands
   identical charges and identical per-line coherence state. *)
module Dir_reference = struct
  type line = {
    home : int;
    mutable writer : int; (* -1 when none *)
    mutable busy_until : int;
    mutable sharers : int list; (* ascending *)
  }

  type t = {
    cfg : Memory_model.config;
    node_busy : int array;
    lines : (int, line) Hashtbl.t;
  }

  let make cfg =
    { cfg; node_busy = Array.make cfg.Memory_model.numa_nodes 0; lines = Hashtbl.create 64 }

  let register t id =
    Hashtbl.replace t.lines id
      { home = id mod t.cfg.Memory_model.numa_nodes; writer = -1; busy_until = 0; sharers = [] }

  let line t id = Hashtbl.find t.lines id
  let add_sharer l p = if not (List.mem p l.sharers) then l.sharers <- List.sort compare (p :: l.sharers)

  let fetch_latency cfg ~home ~proc =
    if proc mod cfg.Memory_model.numa_nodes = home then cfg.Memory_model.local_fetch
    else cfg.Memory_model.remote_fetch

  let miss_start t l ~now =
    let start = Int.max now (Int.max l.busy_until t.node_busy.(l.home)) in
    t.node_busy.(l.home) <- start + t.cfg.Memory_model.node_occupancy;
    start

  (* (start, finish, hit, queued), mirroring Memory_model's documented
     semantics over the record representation. *)
  let access t id ~proc ~now kind =
    let cfg = t.cfg in
    let l = line t id in
    match (kind : Memory_model.kind) with
    | Read ->
      if l.writer = proc || (l.writer = -1 && List.mem proc l.sharers) then
        (now, now + cfg.Memory_model.cache_hit, true, 0)
      else begin
        let start = miss_start t l ~now in
        let latency = fetch_latency cfg ~home:l.home ~proc in
        l.busy_until <- start + cfg.Memory_model.occupancy;
        if l.writer >= 0 then begin
          add_sharer l l.writer;
          l.writer <- -1
        end;
        add_sharer l proc;
        (start, start + latency, false, start - now)
      end
    | Write ->
      if l.writer = proc then (now, now + cfg.Memory_model.cache_hit, true, 0)
      else begin
        let start = miss_start t l ~now in
        let latency = fetch_latency cfg ~home:l.home ~proc in
        l.busy_until <- start + cfg.Memory_model.occupancy;
        l.sharers <- [];
        l.writer <- proc;
        (start, start + latency, false, start - now)
      end
    | Swap ->
      let start = miss_start t l ~now in
      let latency =
        (if l.writer = proc then cfg.Memory_model.cache_hit
         else fetch_latency cfg ~home:l.home ~proc)
        + cfg.Memory_model.swap_extra
      in
      l.busy_until <- start + cfg.Memory_model.occupancy + cfg.Memory_model.swap_extra;
      l.sharers <- [];
      l.writer <- proc;
      (start, start + latency, false, start - now)
end

(* Random register/access scripts through both the flat directory and
   the record-based reference: every charge and, afterwards, every line's
   writer/sharers/busy-until must agree.  Line ids include two far beyond
   the initial capacity so the script exercises the rows' geometric
   growth, and processor ids up to [cfg.max_procs - 1] exercise the
   sharer words' widening. *)
let memory_qcheck_against_reference ~name cfg =
  let line_ids = [| 0; 1; 2; 3; 5; 8; 13; 21; 34; 55; 20_000; 70_000 |] in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 120)
        (triple
           (int_range 0 (Array.length line_ids - 1))
           (int_range 0 (cfg.Memory_model.max_procs - 1))
           (int_range 0 3)))
  in
  let print script =
    String.concat ";"
      (List.map (fun (l, p, k) -> Printf.sprintf "(%d,%d,%d)" l p k) script)
  in
  QCheck.Test.make ~count:150 ~name
    (QCheck.make ~print gen)
    (fun script ->
      let sys = Memory_model.make_system cfg in
      let reference = Dir_reference.make cfg in
      let registered = Hashtbl.create 16 in
      let clock = ref 0 in
      let ensure id =
        if not (Hashtbl.mem registered id) then begin
          Hashtbl.replace registered id (Memory_model.make_meta sys ~id);
          Dir_reference.register reference id
        end
      in
      List.for_all
        (fun (l, proc, op) ->
          let id = line_ids.(l) in
          ensure id;
          if op = 3 then begin
            (* Re-register: the line forgets its coherence state. *)
            Hashtbl.replace registered id (Memory_model.make_meta sys ~id);
            Dir_reference.register reference id;
            true
          end
          else begin
            let kind =
              match op with
              | 0 -> Memory_model.Read
              | 1 -> Memory_model.Write
              | _ -> Memory_model.Swap
            in
            let now = !clock in
            clock := now + 3;
            let meta = Hashtbl.find registered id in
            let c = Memory_model.access sys meta ~proc ~now kind in
            let rs, rf, rh, rq = Dir_reference.access reference id ~proc ~now kind in
            c.Memory_model.start = rs && c.finish = rf && c.hit = rh && c.queued = rq
          end)
        script
      && Hashtbl.fold
           (fun id meta ok ->
             ok
             &&
             let l = Dir_reference.line reference id in
             Memory_model.writer_of sys meta = l.Dir_reference.writer
             && Memory_model.busy_until_of sys meta = l.Dir_reference.busy_until
             && Memory_model.sharers_of sys meta = l.Dir_reference.sharers)
           registered true)

let test_memory_qcheck_against_reference =
  memory_qcheck_against_reference ~name:"flat directory agrees with record reference"
    { Memory_model.default with max_procs = 96; numa_nodes = 7 }

let test_memory_qcheck_default_config =
  memory_qcheck_against_reference
    ~name:"default config, procs 0-511, agrees with record reference" Memory_model.default

(* Each line's sharer words start at one (processors 0-62) and widen when
   a higher id joins; widening and growth relay every row out, so the
   state of every line registered before must come through unchanged. *)
let test_memory_widening_keeps_state () =
  let sys = Memory_model.make_system Memory_model.default in
  let access line proc now kind = Memory_model.access sys line ~proc ~now kind in
  let coherence line = (Memory_model.writer_of sys line, Memory_model.sharers_of sys line) in
  let state line = (coherence line, Memory_model.busy_until_of sys line) in
  let snapshot lines = List.map (fun line -> (line, state line)) lines in
  let unchanged what =
    List.iter (fun (line, before) ->
        check_bool
          (Printf.sprintf "line %d after %s" (Memory_model.location_id line) what)
          true (state line = before))
  in
  let shared = Memory_model.make_meta sys ~id:0 in
  ignore (access shared 0 0 Memory_model.Read);
  ignore (access shared 62 10 Memory_model.Read);
  check_bool "shared by 0 and 62" true (coherence shared = (-1, [ 0; 62 ]));
  let owned = Memory_model.make_meta sys ~id:1 in
  ignore (access owned 62 20 Memory_model.Write);
  let swapped = Memory_model.make_meta sys ~id:5 in
  ignore (access swapped 3 30 Memory_model.Swap);
  (* Written by 300 before any row is wide enough to hold it as a
     sharer; the downgrade below is what adds it. *)
  let downgraded = Memory_model.make_meta sys ~id:9 in
  ignore (access downgraded 300 40 Memory_model.Write);
  let untouched = snapshot [ shared; owned; swapped ] in
  let wide = Memory_model.make_meta sys ~id:2 in
  List.iteri
    (fun i proc ->
      let c = access wide proc (100 + (10 * i)) Memory_model.Read in
      check_bool (Printf.sprintf "first read by %d misses" proc) false c.Memory_model.hit;
      unchanged (Printf.sprintf "proc %d joined" proc) untouched)
    [ 63; 126 ];
  ignore (access downgraded 1 200 Memory_model.Read);
  check_bool "downgrade widens for the old writer" true
    (coherence downgraded = (-1, [ 1; 300 ]));
  ignore (access wide 511 300 Memory_model.Read);
  unchanged "proc 511 joined" untouched;
  check_bool "wide line holds every sharer" true (coherence wide = (-1, [ 63; 126; 511 ]));
  let every_line = snapshot [ shared; owned; swapped; downgraded; wide ] in
  ignore (Memory_model.make_meta sys ~id:70_001);
  unchanged "growth past 70000" every_line;
  check_bool "re-read by 511 hits" true (access wide 511 400 Memory_model.Read).Memory_model.hit

let test_memory_rejects_bad_config () =
  let d = Memory_model.default in
  List.iter
    (fun (config, expect) ->
      let expect = "Memory_model.make_system: " ^ expect in
      Alcotest.check_raises expect (Invalid_argument expect) (fun () ->
          ignore (Memory_model.make_system config)))
    [
      ({ d with numa_nodes = 0 }, "numa_nodes 0 must be at least 1");
      ({ d with max_procs = 0 }, "max_procs 0 must be at least 1");
      ({ d with occupancy = -5 }, "occupancy -5 must not be negative");
      ({ d with cache_hit = -1 }, "cache_hit -1 must not be negative");
      ({ d with swap_extra = -2 }, "swap_extra -2 must not be negative");
    ];
  Alcotest.check_raises "Machine.run refuses it before running"
    (Invalid_argument "Memory_model.make_system: numa_nodes 0 must be at least 1")
    (fun () -> ignore (Machine.run ~config:{ d with numa_nodes = 0 } (fun () -> ())))

(* --- machine ------------------------------------------------------------ *)

let test_work_advances_time () =
  let report = Machine.run (fun () -> Machine.work 1234) in
  check_int "end time" 1234 report.Machine.end_time

let test_time_monotone_per_proc () =
  let ok = ref true in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        for _ = 0 to 3 do
          Machine.spawn (fun () ->
              let last = ref (-1) in
              for _ = 0 to 99 do
                let t = Machine.get_time () in
                if t <= !last then ok := false;
                last := t;
                Machine.work 3
              done)
        done)
  in
  check_bool "clock strictly monotone within a processor" true !ok

let test_spawn_runs_all () =
  let count = ref 0 in
  let report = Machine.run (fun () ->
      for _ = 1 to 50 do
        Machine.spawn (fun () -> incr count)
      done)
  in
  check_int "all processors ran" 50 !count;
  check_int "report counts processors" 51 report.Machine.processors

let test_self_ids_distinct () =
  let ids = ref [] in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        for _ = 1 to 10 do
          Machine.spawn (fun () -> ids := Machine.self () :: !ids)
        done)
  in
  let sorted = List.sort_uniq compare !ids in
  check_int "ten distinct ids" 10 (List.length sorted)

let test_shared_cell_read_write () =
  let result = ref 0 in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let c = Sim_rt.shared 7 in
        Sim_rt.write c 41;
        result := Sim_rt.read c + 1)
  in
  check_int "read back" 42 !result

let test_swap_is_atomic_under_contention () =
  (* 64 processors each swap a unique token into one cell; the multiset of
     returned values plus the final cell value must be exactly the initial
     value and all tokens — nothing lost or duplicated. *)
  let returned = Array.make 64 (-2) in
  let final = ref (-2) in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let c = Sim_rt.shared (-1) in
        for p = 0 to 63 do
          Machine.spawn (fun () -> returned.(p) <- Sim_rt.swap c p)
        done;
        Machine.spawn (fun () ->
            Machine.work 1_000_000;
            final := Sim_rt.read c))
  in
  let all = !final :: Array.to_list returned in
  let sorted = List.sort compare all in
  Alcotest.(check (list int)) "permutation of tokens and initial"
    (List.init 65 (fun i -> i - 1))
    sorted

let test_lock_mutual_exclusion () =
  let in_section = ref 0 in
  let max_in_section = ref 0 in
  let counter = ref 0 in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let lock = Machine.lock_create () in
        for _ = 1 to 32 do
          Machine.spawn (fun () ->
              for _ = 1 to 5 do
                Machine.lock_acquire lock;
                incr in_section;
                if !in_section > !max_in_section then max_in_section := !in_section;
                (* do some simulated work inside the section *)
                Machine.work 20;
                incr counter;
                decr in_section;
                Machine.lock_release lock
              done)
        done)
  in
  check_int "mutual exclusion" 1 !max_in_section;
  check_int "all increments happened" 160 !counter

let test_lock_fifo_fairness () =
  (* Processors spawn staggered so their acquire attempts are ordered;
     FIFO handoff must serve them in that order. *)
  let order = ref [] in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let lock = Machine.lock_create () in
        Machine.lock_acquire lock;
        for p = 1 to 8 do
          Machine.spawn (fun () ->
              Machine.work (p * 1000);
              Machine.lock_acquire lock;
              order := p :: !order;
              Machine.lock_release lock)
        done;
        Machine.work 100_000;
        Machine.lock_release lock)
  in
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3; 4; 5; 6; 7; 8 ] (List.rev !order)

let test_release_by_non_holder_fails () =
  Alcotest.check_raises "release without holding"
    (Failure "Machine: processor 0 released lock l held by -1") (fun () ->
      ignore
        (Machine.run (fun () ->
             let lock = Machine.lock_create ~name:"l" () in
             Machine.lock_release lock)))

let test_deadlock_detection () =
  check_bool "deadlock raised" true
    (try
       ignore
         (Machine.run (fun () ->
              let a = Machine.lock_create ~name:"a" () in
              let b = Machine.lock_create ~name:"b" () in
              Machine.spawn (fun () ->
                  Machine.lock_acquire a;
                  Machine.work 1000;
                  Machine.lock_acquire b);
              Machine.spawn (fun () ->
                  Machine.lock_acquire b;
                  Machine.work 1000;
                  Machine.lock_acquire a)));
       false
     with Machine.Deadlock _ -> true)

let test_deadlock_diagnostic_names_locks () =
  (* Two processors each park on a lock whose holder exits without
     releasing; the Deadlock message must name the locks and list the
     parked processor ids. *)
  match
    Machine.run (fun () ->
        let outer = Machine.lock_create ~name:"outer" () in
        let inner = Machine.lock_create ~name:"inner" () in
        Machine.lock_acquire outer;
        Machine.lock_acquire inner;
        Machine.spawn (fun () -> Machine.lock_acquire outer);
        Machine.spawn (fun () -> Machine.lock_acquire inner);
        Machine.spawn (fun () ->
            Machine.work 10_000;
            Machine.lock_acquire inner))
  with
  | (_ : Machine.report) -> Alcotest.fail "expected Deadlock"
  | exception Machine.Deadlock msg ->
    let contains sub =
      let n = String.length msg and m = String.length sub in
      let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
      go 0
    in
    check_bool "counts parked" true (contains "3 processor(s) parked");
    check_bool "names outer with its waiter" true
      (contains "\"outer\" held by 0, waited on by [1]");
    check_bool "names inner with both waiters in park order" true
      (contains "\"inner\" held by 0, waited on by [2; 3]")

(* Lock accounting consistency, pinned: [lock_acquisitions] counts grants
   (immediate acquire, handoff to a parked waiter, successful try) and
   [lock_try_failures] counts failed tries, so that
   attempts = acquisitions + try_failures.  The schedule: the root holds
   the lock; P1 parks on acquire (contention, granted later at handoff);
   P2 try-fails twice while the root still holds it, then try-succeeds
   after the handoff chain is done. *)
let test_lock_attempt_accounting_pinned () =
  let tried = ref [] in
  let report =
    Machine.run ~config:Memory_model.sequential (fun () ->
        let lock = Machine.lock_create ~name:"acct" () in
        Machine.lock_acquire lock;
        Machine.spawn (fun () ->
            (* parks behind the root *)
            Machine.lock_acquire lock;
            Machine.work 10;
            Machine.lock_release lock);
        Machine.spawn (fun () ->
            tried := Machine.lock_try_acquire lock :: !tried;
            tried := Machine.lock_try_acquire lock :: !tried;
            Machine.work 10_000;
            tried := Machine.lock_try_acquire lock :: !tried;
            Machine.lock_release lock);
        Machine.work 100;
        Machine.lock_release lock)
  in
  Alcotest.(check (list bool)) "try outcomes" [ true; false; false ] !tried;
  (* grants: root's immediate acquire, handoff to P1, P2's final try *)
  check_int "acquisitions count grants only" 3 report.Machine.lock_acquisitions;
  check_int "contentions count parked attempts" 1 report.Machine.lock_contentions;
  check_int "failed tries counted separately" 2 report.Machine.lock_try_failures

(* The determinism golden test for the run-ahead fast path: a fixed mixed
   workload (spawning, work, reads/writes/swaps/CAS, get_time, contended
   blocking locks, try-locks) must produce the identical report and the
   byte-identical event trace with the fast path force-disabled vs
   enabled — the §S16 invariant, pinned. *)
let mixed_workload () =
  let cells = Array.init 4 (fun _ -> Sim_rt.shared 0) in
  let lock = Machine.lock_create ~name:"golden" () in
  for p = 0 to 11 do
    Machine.spawn (fun () ->
        for i = 0 to 19 do
          Machine.work ((p * 31) mod 97);
          let c = cells.((p + i) mod 4) in
          (match i mod 5 with
          | 0 -> ignore (Sim_rt.read c)
          | 1 -> Sim_rt.write c i
          | 2 -> ignore (Sim_rt.swap c p)
          | 3 -> ignore (Sim_rt.cas c (Sim_rt.read c) i)
          | _ -> ignore (Machine.get_time ()));
          if i mod 7 = 0 then begin
            Machine.lock_acquire lock;
            Machine.work 5;
            Machine.lock_release lock
          end
          else if i mod 11 = 0 then begin
            if Machine.lock_try_acquire lock then Machine.lock_release lock
          end
        done)
  done

let trace_fingerprint_run ?perturb ~fast_path () =
  let buf = Buffer.create 4096 in
  let sink e =
    Buffer.add_string buf (Format.asprintf "%a@." Repro_sim.Trace.pp_event e)
  in
  let report = Machine.run ?perturb ~tracer:sink ~fast_path mixed_workload in
  (Buffer.contents buf, report)

let test_fast_path_golden_determinism () =
  let trace_on, on = trace_fingerprint_run ~fast_path:true () in
  let trace_off, off = trace_fingerprint_run ~fast_path:false () in
  Alcotest.(check string) "byte-identical traces" trace_off trace_on;
  check_bool "identical reports" true (on = off);
  (* sanity: the workload actually exercised the interesting paths *)
  check_bool "some events" true (on.Machine.events > 500);
  check_bool "some contention" true (on.Machine.lock_contentions > 0)

let test_determinism () =
  let run () =
    let trace = Buffer.create 64 in
    let report =
      Machine.run (fun () ->
          let c = Sim_rt.shared 0 in
          let lock = Machine.lock_create () in
          for p = 0 to 15 do
            Machine.spawn (fun () ->
                for _ = 0 to 9 do
                  Machine.lock_acquire lock;
                  let v = Sim_rt.read c in
                  Sim_rt.write c (v + 1);
                  Machine.lock_release lock;
                  Machine.work ((p * 17) mod 23)
                done);
            Buffer.add_string trace (string_of_int p)
          done)
    in
    (Buffer.contents trace, report.Machine.end_time, report.Machine.accesses)
  in
  let a = run () and b = run () in
  check_bool "identical executions" true (a = b)

(* The schedule-perturbation hooks (the history fuzzer's lever) must keep
   every run a deterministic function of the seed, and must be completely
   inert when disabled — same program, same seed, byte-identical trace and
   stats. *)
let test_perturb_determinism () =
  let run ?perturb () =
    let trace = Buffer.create 256 in
    let report =
      Machine.run ?perturb (fun () ->
          let c = Sim_rt.shared 0 in
          for p = 0 to 7 do
            Machine.spawn (fun () ->
                for _ = 0 to 9 do
                  let v = Sim_rt.read c in
                  Sim_rt.write c (v + 1);
                  Buffer.add_string trace (Printf.sprintf "%d@%d;" p (Machine.probe_time ()));
                  Machine.work ((p * 13) mod 17)
                done)
          done)
    in
    (Buffer.contents trace, report.Machine.end_time, report.Machine.accesses)
  in
  let base_a = run () and base_b = run () in
  check_bool "disabled hooks stay byte-identical" true (base_a = base_b);
  let p seed = Some { Machine.sched_seed = seed; jitter = 24 } in
  let a = run ?perturb:(p 42L) () and b = run ?perturb:(p 42L) () in
  check_bool "same seed replays exactly" true (a = b);
  let c = run ?perturb:(p 43L) () in
  check_bool "different seed, different schedule" false (a = c);
  check_bool "perturbed differs from canonical" false (a = base_a);
  (* jitter 0 randomizes only same-time tie-breaks; times stay exact *)
  let t0 = run ?perturb:(Some { Machine.sched_seed = 1L; jitter = 0 }) () in
  let t1 = run ?perturb:(Some { Machine.sched_seed = 1L; jitter = 0 }) () in
  check_bool "zero jitter still deterministic" true (t0 = t1);
  check_bool "negative jitter rejected" true
    (try
       ignore (Machine.run ~perturb:{ Machine.sched_seed = 1L; jitter = -1 } (fun () -> ()));
       false
     with Invalid_argument _ -> true)

(* Lock-wait accounting, pinned against a hand-computed two-processor
   schedule under the flat [sequential] memory model (every access 1
   cycle, handoff 1 cycle):

     root   spawns P1 (clock 0, root -> 1), spawns P2 (clock 1, root -> 2)
     P1     Acquire: swap on the lock word finishes @1 -> holds the lock
            work 100 -> clock 101
            Release: write finishes @102
     P2     Acquire: swap finishes @2 -> held, parks @2
            woken at max(102, 2) + 1 = 103, so it waited 103 - 2 = 101
            Release: write finishes @104

   Any change to how Parked/Woken cycles are charged shows up here as an
   exact-number failure, not a drift. *)
let test_lock_wait_accounting_pinned () =
  let summary = Repro_sim.Trace.Summary.create () in
  let report =
    Machine.run ~config:Memory_model.sequential
      ~tracer:(Repro_sim.Trace.Summary.sink summary)
      (fun () ->
        let lock = Machine.lock_create ~name:"pinned" () in
        Machine.spawn (fun () ->
            Machine.lock_acquire lock;
            Machine.work 100;
            Machine.lock_release lock);
        Machine.spawn (fun () ->
            Machine.lock_acquire lock;
            Machine.lock_release lock))
  in
  check_int "end time" 104 report.Machine.end_time;
  check_int "acquisitions" 2 report.Machine.lock_acquisitions;
  check_int "contentions" 1 report.Machine.lock_contentions;
  check_int "waited cycles" 101 report.Machine.lock_wait_cycles;
  match Repro_sim.Trace.Summary.lock_profile summary with
  | [ (name, acqs, parkings, waited) ] ->
    Alcotest.(check string) "profiled lock name" "pinned" name;
    check_int "profiled acquisitions" 2 acqs;
    check_int "profiled parkings" 1 parkings;
    check_int "profiled waited cycles" 101 waited
  | profile ->
    Alcotest.failf "expected exactly one profiled lock, got %d"
      (List.length profile)

let test_stats_populated () =
  let report =
    Machine.run (fun () ->
        let c = Sim_rt.shared 0 in
        let lock = Machine.lock_create () in
        for _ = 0 to 7 do
          Machine.spawn (fun () ->
              Machine.lock_acquire lock;
              ignore (Sim_rt.swap c 1);
              Machine.lock_release lock)
        done)
  in
  check_bool "accesses counted" true (report.Machine.accesses > 0);
  check_bool "swaps counted" true (report.Machine.swaps >= 8);
  check_int "lock acquisitions" 8 report.Machine.lock_acquisitions;
  check_bool "some contention" true (report.Machine.lock_contentions > 0)

let test_outside_run_fails () =
  (* A lock and a condition to hand the operations that take one: built
     inside a finished run, then used after it. *)
  let lock = ref None and cond = ref None in
  ignore
    (Machine.run (fun () ->
         let l = Machine.lock_create () in
         lock := Some l;
         cond := Some (Machine.cond_create l)));
  let lock = Option.get !lock and cond = Option.get !cond in
  let meta = Memory_model.make_meta (Memory_model.make_system Memory_model.default) ~id:0 in
  List.iter
    (fun (name, op) ->
      Alcotest.check_raises (name ^ " outside run")
        (Failure "Machine: operation used outside Machine.run") op)
    [
      ("spawn", fun () -> Machine.spawn ignore);
      ("work", fun () -> Machine.work 1);
      ("get_time", fun () -> ignore (Machine.get_time ()));
      ("self", fun () -> ignore (Machine.self ()));
      ("probe_time", fun () -> ignore (Machine.probe_time ()));
      ("alloc_meta", fun () -> ignore (Machine.alloc_meta ()));
      ("access", fun () -> Machine.access meta Memory_model.Read);
      ("lock_create", fun () -> ignore (Machine.lock_create ()));
      ("lock_acquire", fun () -> Machine.lock_acquire lock);
      ("lock_try_acquire", fun () -> ignore (Machine.lock_try_acquire lock));
      ("lock_release", fun () -> Machine.lock_release lock);
      ("lock_refresh", fun () -> Machine.lock_refresh lock);
      ("cond_create", fun () -> ignore (Machine.cond_create lock));
      ("cond_wait", fun () -> Machine.cond_wait cond);
      ("cond_signal", fun () -> Machine.cond_signal cond);
      ("cond_broadcast", fun () -> Machine.cond_broadcast cond);
      ("probe_lock_stats", fun () -> ignore (Machine.probe_lock_stats ()));
      ("probe_runnable", fun () -> ignore (Machine.probe_runnable ()));
      ("probe_blocking", fun () -> ignore (Machine.probe_blocking ()));
    ]

let test_probe_runnable_counts_ready () =
  (* Three children still working are ready to run; one parked on the
     root's lock is not, and finished ones are gone. *)
  let seen = ref [] in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let lock = Machine.lock_create () in
        Machine.lock_acquire lock;
        for _ = 1 to 3 do
          Machine.spawn (fun () -> Machine.work 1_000)
        done;
        Machine.spawn (fun () ->
            Machine.lock_acquire lock;
            Machine.lock_release lock);
        Machine.work 100;
        seen := Machine.probe_runnable () :: !seen;
        Machine.work 10_000;
        seen := Machine.probe_runnable () :: !seen;
        Machine.lock_release lock)
  in
  Alcotest.(check (list int)) "runnable while working, then none" [ 3; 0 ] (List.rev !seen)

let test_get_time_reflects_work () =
  let t1 = ref 0 and t2 = ref 0 in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        t1 := Machine.get_time ();
        Machine.work 500;
        t2 := Machine.get_time ())
  in
  check_bool "time advanced by work" true (!t2 - !t1 >= 500)

(* Contention shape: the same number of swaps against one location must
   cost more total simulated time than against distinct locations — the
   hot-spot phenomenon the paper's results rest on. *)
let test_hotspot_slower_than_spread () =
  let elapsed ~shared_loc =
    let report =
      Machine.run (fun () ->
          let cells = Array.init 32 (fun _ -> Sim_rt.shared 0) in
          for p = 0 to 31 do
            Machine.spawn (fun () ->
                let cell = if shared_loc then cells.(0) else cells.(p) in
                for _ = 0 to 19 do
                  ignore (Sim_rt.swap cell p)
                done)
          done)
    in
    report.Machine.end_time
  in
  let hot = elapsed ~shared_loc:true in
  let spread = elapsed ~shared_loc:false in
  check_bool "hot spot at least 3x slower" true (hot > 3 * spread)

(* --- machine edge cases ---------------------------------------------------- *)

let test_negative_work_clamped () =
  let report = Machine.run (fun () -> Machine.work (-50)) in
  check_int "negative work is free, not time travel" 0 report.Machine.end_time

let test_probe_time_is_free () =
  let t1 = ref 0 and t2 = ref 0 in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        t1 := Machine.probe_time ();
        t2 := Machine.probe_time ())
  in
  check_int "probe does not advance the clock" !t1 !t2

let test_get_time_charges () =
  let t1 = ref 0 and t2 = ref 0 in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        t1 := Machine.get_time ();
        t2 := Machine.get_time ())
  in
  check_bool "get_time costs cycles" true (!t2 > !t1)

let test_nested_runs () =
  (* A simulation may be constructed inside another program that itself
     runs simulations sequentially; two back-to-back runs are independent. *)
  let r1 = Machine.run (fun () -> Machine.work 10) in
  let r2 = Machine.run (fun () -> Machine.work 20) in
  check_int "independent clocks" 10 r1.Machine.end_time;
  check_int "independent clocks 2" 20 r2.Machine.end_time

let test_spawn_limit () =
  check_bool "spawn beyond max_procs fails" true
    (try
       ignore
         (Machine.run (fun () ->
              for _ = 1 to 600 do
                Machine.spawn (fun () -> ())
              done));
       false
     with Failure _ -> true)

let test_exception_propagates () =
  Alcotest.check_raises "worker exception surfaces" Exit (fun () ->
      ignore
        (Machine.run (fun () -> Machine.spawn (fun () -> raise Exit))))

(* --- barrier (generic over RUNTIME, tested on both backends) ------------- *)

let test_barrier_phases_align () =
  (* Between phases, every processor's counter must agree: nobody enters
     phase k+1 before all finished phase k. *)
  let parties = 16 and phases = 5 in
  let counters = Array.make parties 0 in
  let violations = ref 0 in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let b = Sim_barrier.create ~parties in
        for p = 0 to parties - 1 do
          Machine.spawn (fun () ->
              for phase = 1 to phases do
                counters.(p) <- phase;
                (* stagger arrivals *)
                Machine.work (1 + ((p * 37) mod 300));
                Sim_barrier.await b;
                (* after the barrier, everyone must be at this phase *)
                Array.iter (fun c -> if c < phase then incr violations) counters
              done)
        done)
  in
  check_int "no phase skew" 0 !violations

let test_barrier_counts_phases () =
  let seen = ref 0 in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let b = Sim_barrier.create ~parties:4 in
        for _ = 1 to 4 do
          Machine.spawn (fun () ->
              for _ = 1 to 3 do
                Sim_barrier.await b
              done)
        done;
        Machine.spawn (fun () ->
            Machine.work 100_000_000;
            seen := Sim_barrier.phases b))
  in
  check_int "three phases" 3 !seen

let test_barrier_single_party () =
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let b = Sim_barrier.create ~parties:1 in
        Sim_barrier.await b;
        Sim_barrier.await b)
  in
  ()

let test_barrier_rejects_zero () =
  Alcotest.check_raises "zero parties" (Invalid_argument "Barrier.create: parties < 1")
    (fun () ->
      ignore (Machine.run (fun () -> ignore (Sim_barrier.create ~parties:0))))

let test_barrier_native () =
  let parties = 4 in
  Repro_runtime.Native_runtime.reset_clock ();
  let b = Native_barrier.create ~parties in
  let log = Array.make parties (-1) in
  Repro_runtime.Native_runtime.run_processors parties (fun p ->
      for phase = 0 to 9 do
        log.(p) <- phase;
        Native_barrier.await b;
        (* all domains at or past this phase *)
        Array.iter (fun v -> assert (v >= phase)) log
      done);
  check_int "phases counted" 10 (Native_barrier.phases b)

(* --- condition variables -------------------------------------------------- *)

let test_cond_wait_signal () =
  (* classic guarded handoff: the waiter parks until the flag flips *)
  let observed = ref (-1) in
  let report =
    Machine.run (fun () ->
        let lock = Machine.lock_create ~name:"m" () in
        let cv = Machine.cond_create ~name:"cv" lock in
        let flag = Sim_rt.shared 0 in
        Machine.spawn (fun () ->
            Machine.lock_acquire lock;
            while Sim_rt.read flag = 0 do
              Machine.cond_wait cv
            done;
            observed := Machine.probe_time ();
            Machine.lock_release lock);
        Machine.spawn (fun () ->
            Machine.work 5_000;
            Machine.lock_acquire lock;
            Sim_rt.write flag 1;
            Machine.cond_signal cv;
            Machine.lock_release lock))
  in
  check_bool "waiter resumed after the signal" true (!observed >= 5_000);
  check_int "one parking" 1 report.Machine.cond_parkings;
  check_bool "waited cycles accounted" true (report.Machine.cond_wait_cycles >= 4_000)

let test_cond_fifo_wake_order () =
  (* Waiters park in a staggered, known order; each signal must wake the
     longest-parked one (FIFO), exactly like the lock handoff queue. *)
  let order = ref [] in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let lock = Machine.lock_create () in
        let cv = Machine.cond_create lock in
        let turn = Sim_rt.shared 0 in
        for p = 1 to 6 do
          Machine.spawn (fun () ->
              Machine.work (p * 1_000);
              Machine.lock_acquire lock;
              while Sim_rt.read turn = 0 do
                Machine.cond_wait cv
              done;
              Sim_rt.write turn (Sim_rt.read turn - 1);
              order := p :: !order;
              Machine.cond_signal cv;
              Machine.lock_release lock)
        done;
        Machine.spawn (fun () ->
            Machine.work 50_000;
            Machine.lock_acquire lock;
            Sim_rt.write turn 6;
            Machine.cond_signal cv;
            Machine.lock_release lock))
  in
  Alcotest.(check (list int)) "FIFO wake order" [ 1; 2; 3; 4; 5; 6 ] (List.rev !order)

let test_cond_broadcast_wakes_all () =
  let woken = ref 0 in
  let report =
    Machine.run (fun () ->
        let lock = Machine.lock_create () in
        let cv = Machine.cond_create lock in
        let go = Sim_rt.shared 0 in
        for _ = 1 to 5 do
          Machine.spawn (fun () ->
              Machine.lock_acquire lock;
              while Sim_rt.read go = 0 do
                Machine.cond_wait cv
              done;
              incr woken;
              Machine.lock_release lock)
        done;
        Machine.spawn (fun () ->
            Machine.work 20_000;
            Machine.lock_acquire lock;
            Sim_rt.write go 1;
            Machine.cond_broadcast cv;
            Machine.lock_release lock))
  in
  check_int "all waiters woken" 5 !woken;
  check_int "five parkings" 5 report.Machine.cond_parkings

let test_cond_wait_without_lock_fails () =
  Alcotest.check_raises "wait without holding the guarding lock"
    (Failure "Machine: processor 0 waits on condition cv without holding lock m")
    (fun () ->
      ignore
        (Machine.run (fun () ->
             let lock = Machine.lock_create ~name:"m" () in
             let cv = Machine.cond_create ~name:"cv" lock in
             Machine.cond_wait cv)))

let test_cond_deadlock_diagnostic () =
  (* A processor parked on a never-signaled condition and another parked on
     a lock; the diagnostic must split the counts and name the condition
     with its guarding lock. *)
  match
    Machine.run (fun () ->
        let m = Machine.lock_create ~name:"m" () in
        let held = Machine.lock_create ~name:"held" () in
        let cv = Machine.cond_create ~name:"cv" m in
        Machine.lock_acquire held;
        Machine.spawn (fun () ->
            Machine.lock_acquire m;
            Machine.cond_wait cv);
        Machine.spawn (fun () ->
            Machine.work 5_000;
            Machine.lock_acquire held))
  with
  | (_ : Machine.report) -> Alcotest.fail "expected Deadlock"
  | exception Machine.Deadlock msg ->
    let contains sub =
      let n = String.length msg and m = String.length sub in
      let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
      go 0
    in
    check_bool "splits lock/condition parkings" true
      (contains "2 processor(s) parked (1 on locks, 1 on conditions)");
    check_bool "names the condition and its lock" true
      (contains "condition \"cv\" (lock \"m\") waited on by [1]");
    check_bool "still names the lock waiter" true (contains "\"held\" held by 0, waited on by [2]")

(* The producer/consumer shape every blocking test cares about, as one
   reusable cond workload: 2 producers, 2 consumers, a capacity-4 buffer
   guarded by one lock and two conditions. *)
let cond_workload () =
  let lock = Machine.lock_create ~name:"buf" () in
  let not_full = Machine.cond_create ~name:"not_full" lock in
  let not_empty = Machine.cond_create ~name:"not_empty" lock in
  let size = Sim_rt.shared 0 in
  let produced = Sim_rt.shared 0 in
  for p = 0 to 1 do
    Machine.spawn (fun () ->
        (* arrive after the consumers so both conditions engage: the
           consumers park on [not_empty] first, then outpaced producers
           park on [not_full] once the buffer fills *)
        Machine.work (2_000 * (p + 1));
        for _ = 1 to 20 do
          Machine.lock_acquire lock;
          while Sim_rt.read size >= 4 do
            Machine.cond_wait not_full
          done;
          Sim_rt.write size (Sim_rt.read size + 1);
          Sim_rt.write produced (Sim_rt.read produced + 1);
          Machine.cond_signal not_empty;
          Machine.lock_release lock;
          Machine.work (17 * (p + 1))
        done)
  done;
  for c = 0 to 1 do
    Machine.spawn (fun () ->
        for _ = 1 to 20 do
          Machine.lock_acquire lock;
          while Sim_rt.read size = 0 do
            Machine.cond_wait not_empty
          done;
          Sim_rt.write size (Sim_rt.read size - 1);
          Machine.cond_signal not_full;
          Machine.lock_release lock;
          Machine.work (231 * (c + 1))
        done)
  done

let cond_fingerprint_run ?perturb ~fast_path () =
  let buf = Buffer.create 4096 in
  let sink e = Buffer.add_string buf (Format.asprintf "%a@." Repro_sim.Trace.pp_event e) in
  let report = Machine.run ?perturb ~tracer:sink ~fast_path cond_workload in
  (Buffer.contents buf, report)

let test_cond_fast_path_identity () =
  (* The run-ahead fast path must be semantically invisible for parking
     programs too: byte-identical trace, identical report. *)
  let trace_on, on = cond_fingerprint_run ~fast_path:true () in
  let trace_off, off = cond_fingerprint_run ~fast_path:false () in
  Alcotest.(check string) "byte-identical traces" trace_off trace_on;
  check_bool "identical reports" true (on = off);
  check_bool "workload parked" true (on.Machine.cond_parkings > 0)

let test_cond_perturbed_determinism_pinned () =
  (* Park/wake order under a perturbation seed is a pure function of the
     seed: same seed twice -> byte-identical trace; a different seed moves
     at least something in this schedule-sensitive workload. *)
  let run seed =
    cond_fingerprint_run ~perturb:{ Machine.sched_seed = seed; jitter = 24 } ~fast_path:true ()
  in
  let t1, r1 = run 7L in
  let t2, r2 = run 7L in
  Alcotest.(check string) "seed 7 replays byte-identically" t1 t2;
  check_bool "identical reports" true (r1 = r2);
  let t3, _ = run 8L in
  check_bool "a different seed perturbs the schedule" true (t1 <> t3)

(* A trace and its report folded into one hex digest, so a literal can pin
   a whole perturbed schedule across versions of the simulator. *)
let schedule_digest (trace, (r : Machine.report)) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d %d %d %d %d %d %d %d %d %d %d %d %d" trace r.end_time
          r.processors r.events r.accesses r.cache_hits r.queued_cycles r.swaps
          r.lock_acquisitions r.lock_contentions r.lock_wait_cycles r.lock_try_failures
          r.cond_parkings r.cond_wait_cycles))

let test_perturbed_schedules_pinned () =
  (* The self-comparisons above cannot see a change that moves every
     perturbed schedule the same way; these literals can.  They pin the
     park/wake workload at seed 7 and the mixed lock/memory workload at
     seed 42 (both jitter 24): event order, cycle counts, every PRNG draw. *)
  let perturb seed = { Machine.sched_seed = seed; jitter = 24 } in
  Alcotest.(check string)
    "cond workload, seed 7" "1df8c3ce5f5dc098477cae4a8b0d42fa"
    (schedule_digest (cond_fingerprint_run ~perturb:(perturb 7L) ~fast_path:true ()));
  Alcotest.(check string)
    "mixed workload, seed 42" "2bee4ca52cee07ae185957918e9f7f47"
    (schedule_digest (trace_fingerprint_run ~perturb:(perturb 42L) ~fast_path:true ()))

let test_cond_trace_profile () =
  (* Trace.Summary must attribute parkings and waited cycles per condition
     name, consistent with the report totals. *)
  let summary = Repro_sim.Trace.Summary.create () in
  let report = Machine.run ~tracer:(Repro_sim.Trace.Summary.sink summary) cond_workload in
  let profile = Repro_sim.Trace.Summary.cond_profile summary in
  let total_parkings = List.fold_left (fun acc (_, p, _) -> acc + p) 0 profile in
  let total_waited = List.fold_left (fun acc (_, _, w) -> acc + w) 0 profile in
  check_int "parkings attributed" report.Machine.cond_parkings total_parkings;
  check_int "waited cycles attributed" report.Machine.cond_wait_cycles total_waited;
  let appears name = List.exists (fun (n, _, _) -> n = name) profile in
  check_bool "both conditions appear" true (appears "not_full" && appears "not_empty")

let () =
  Alcotest.run "sim"
    [
      ( "event-queue",
        [
          Alcotest.test_case "ordering" `Quick test_event_queue_order;
          Alcotest.test_case "FIFO at equal times" `Quick
            test_event_queue_fifo_at_equal_times;
          Alcotest.test_case "growth past initial capacity" `Quick
            test_event_queue_growth;
          QCheck_alcotest.to_alcotest test_event_queue_qcheck_model;
        ] );
      ( "memory-model",
        [
          Alcotest.test_case "read caching" `Quick test_memory_read_caching;
          Alcotest.test_case "write invalidates" `Quick test_memory_write_invalidates;
          Alcotest.test_case "hot-spot queueing" `Quick test_memory_hotspot_queues;
          Alcotest.test_case "swap ordering" `Quick test_memory_swap_orders;
          Alcotest.test_case "sequential config" `Quick test_memory_sequential_config_is_flat;
          QCheck_alcotest.to_alcotest test_memory_qcheck_against_reference;
          QCheck_alcotest.to_alcotest test_memory_qcheck_default_config;
          Alcotest.test_case "sharer sets survive widening and growth" `Quick
            test_memory_widening_keeps_state;
          Alcotest.test_case "rejects bad config" `Quick test_memory_rejects_bad_config;
        ] );
      ( "machine",
        [
          Alcotest.test_case "work advances time" `Quick test_work_advances_time;
          Alcotest.test_case "monotone clocks" `Quick test_time_monotone_per_proc;
          Alcotest.test_case "spawn runs all" `Quick test_spawn_runs_all;
          Alcotest.test_case "distinct ids" `Quick test_self_ids_distinct;
          Alcotest.test_case "shared cells" `Quick test_shared_cell_read_write;
          Alcotest.test_case "atomic swap" `Quick test_swap_is_atomic_under_contention;
          Alcotest.test_case "mutual exclusion" `Quick test_lock_mutual_exclusion;
          Alcotest.test_case "FIFO fairness" `Quick test_lock_fifo_fairness;
          Alcotest.test_case "release by non-holder" `Quick test_release_by_non_holder_fails;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "deadlock diagnostic names locks" `Quick
            test_deadlock_diagnostic_names_locks;
          Alcotest.test_case "lock attempt accounting pinned" `Quick
            test_lock_attempt_accounting_pinned;
          Alcotest.test_case "fast-path golden determinism" `Quick
            test_fast_path_golden_determinism;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "perturbation determinism" `Quick test_perturb_determinism;
          Alcotest.test_case "lock-wait accounting pinned" `Quick
            test_lock_wait_accounting_pinned;
          Alcotest.test_case "stats populated" `Quick test_stats_populated;
          Alcotest.test_case "outside run fails" `Quick test_outside_run_fails;
          Alcotest.test_case "probe_runnable counts ready processors" `Quick
            test_probe_runnable_counts_ready;
          Alcotest.test_case "get_time reflects work" `Quick test_get_time_reflects_work;
          Alcotest.test_case "hot spot slower than spread" `Quick
            test_hotspot_slower_than_spread;
        ] );
      ( "machine-edges",
        [
          Alcotest.test_case "negative work clamped" `Quick test_negative_work_clamped;
          Alcotest.test_case "probe_time is free" `Quick test_probe_time_is_free;
          Alcotest.test_case "get_time charges" `Quick test_get_time_charges;
          Alcotest.test_case "sequential runs independent" `Quick test_nested_runs;
          Alcotest.test_case "spawn limit" `Quick test_spawn_limit;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
        ] );
      ( "condition",
        [
          Alcotest.test_case "wait/signal handoff" `Quick test_cond_wait_signal;
          Alcotest.test_case "FIFO wake order" `Quick test_cond_fifo_wake_order;
          Alcotest.test_case "broadcast wakes all" `Quick test_cond_broadcast_wakes_all;
          Alcotest.test_case "wait without lock fails" `Quick
            test_cond_wait_without_lock_fails;
          Alcotest.test_case "deadlock diagnostic names conditions" `Quick
            test_cond_deadlock_diagnostic;
          Alcotest.test_case "fast-path byte identity" `Quick
            test_cond_fast_path_identity;
          Alcotest.test_case "perturbed determinism pinned" `Quick
            test_cond_perturbed_determinism_pinned;
          Alcotest.test_case "perturbed schedules pinned by digest" `Quick
            test_perturbed_schedules_pinned;
          Alcotest.test_case "trace profile" `Quick test_cond_trace_profile;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "phases align" `Quick test_barrier_phases_align;
          Alcotest.test_case "counts phases" `Quick test_barrier_counts_phases;
          Alcotest.test_case "single party" `Quick test_barrier_single_party;
          Alcotest.test_case "rejects zero" `Quick test_barrier_rejects_zero;
          Alcotest.test_case "native domains" `Quick test_barrier_native;
        ] );
    ]
