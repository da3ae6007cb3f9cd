(* Adversarial schedules and degenerate configurations: worst-case key
   orders, single-element churn, EMPTY races, degenerate skiplist shapes,
   stalled processors.  Everything runs on the simulator, so a failure is
   a deterministic, reproducible schedule. *)

module Machine = Repro_sim.Machine
module Sim_rt = Repro_sim.Sim_runtime
module Rng = Repro_util.Rng
module SQ = Repro_skipqueue.Skipqueue.Make (Sim_rt)
module Heap = Repro_heap.Hunt_heap.Make (Sim_rt)
module Oracle = Repro_pqueue.Oracle

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let stat name stats = int_of_float (List.assoc name stats)
let ok_or_fail = function Ok () -> () | Error m -> Alcotest.fail m

(* Build the structure in the root processor, run workers on it, then a
   post-quiescence validator. *)
let with_resource ~setup ~workers ~validate () =
  let failure = ref None in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let resource = setup () in
        List.iter (fun worker -> Machine.spawn (fun () -> worker resource)) workers;
        Machine.spawn (fun () ->
            Machine.work (1 lsl 50);
            try validate resource with e -> failure := Some e))
  in
  match !failure with None -> () | Some e -> raise e

(* --- worst-case key orders for the skiplist -------------------------------- *)

(* Ascending inserts concentrate all insertions at the end of the bottom
   list while deleters chew the front: maximal bottom-level churn. *)
let test_sq_ascending_inserts_vs_deleters () =
  let deleted = ref 0 in
  with_resource
    ~setup:(fun () -> SQ.create ~seed:1L ())
    ~workers:
      (List.init 8 (fun p queue ->
           if p < 4 then
             for i = 0 to 99 do
               ignore (SQ.insert queue ((i * 4) + p) i)
             done
           else
             for _ = 0 to 99 do
               match SQ.delete_min queue with
               | Some _ -> incr deleted
               | None -> ()
             done))
    ~validate:(fun queue ->
      ok_or_fail (SQ.check_invariants queue);
      check_int "conservation" 400 (!deleted + SQ.size queue))
    ()

(* Descending inserts: every insertion is the new minimum, landing exactly
   where the Delete-min hunt is racing. *)
let test_sq_descending_inserts_vs_deleters () =
  let deleted = ref 0 in
  with_resource
    ~setup:(fun () -> SQ.create ~seed:2L ())
    ~workers:
      (List.init 8 (fun p queue ->
           if p < 4 then
             for i = 0 to 99 do
               ignore (SQ.insert queue (1_000_000 - ((i * 4) + p)) i)
             done
           else
             for _ = 0 to 99 do
               match SQ.delete_min queue with
               | Some _ -> incr deleted
               | None -> ()
             done))
    ~validate:(fun queue ->
      ok_or_fail (SQ.check_invariants queue);
      check_int "conservation" 400 (!deleted + SQ.size queue))
    ()

(* --- EMPTY races ------------------------------------------------------------ *)

let test_sq_delete_on_empty_swarm () =
  let results = ref 0 in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = SQ.create () in
        for _ = 1 to 64 do
          Machine.spawn (fun () ->
              for _ = 1 to 5 do
                match SQ.delete_min q with
                | None -> ()
                | Some _ -> incr results
              done)
        done)
  in
  check_int "empty queue yields nothing" 0 !results

let test_sq_single_element_churn () =
  (* 32 processors fight over a queue that holds at most a few elements;
     every deleted element must have been inserted exactly once. *)
  let inserted = ref 0 and deleted = ref 0 in
  with_resource
    ~setup:(fun () -> SQ.create ~seed:3L ())
    ~workers:
      (List.init 32 (fun p queue ->
           let rng = Rng.of_seed (Int64.of_int (40 + p)) in
           for i = 0 to 19 do
             if Rng.bool rng then begin
               (* unique keys to keep counting exact *)
               ignore (SQ.insert queue ((p * 1000) + i) i);
               incr inserted
             end
             else
               match SQ.delete_min queue with
               | Some _ -> incr deleted
               | None -> ()
           done))
    ~validate:(fun queue ->
      ok_or_fail (SQ.check_invariants queue);
      check_int "conservation" !inserted (!deleted + SQ.size queue))
    ()

(* --- degenerate shapes -------------------------------------------------------- *)

let test_sq_max_level_one_is_a_linked_list () =
  (* max_level 1 degenerates into Pugh's concurrent linked list; all the
     level machinery must still work. *)
  with_resource
    ~setup:(fun () -> SQ.create ~max_level:1 ~seed:4L ())
    ~workers:
      (List.init 8 (fun p queue ->
           let rng = Rng.of_seed (Int64.of_int (70 + p)) in
           for i = 0 to 39 do
             if Rng.bool rng then ignore (SQ.insert queue ((p * 100) + i) i)
             else ignore (SQ.delete_min queue)
           done))
    ~validate:(fun queue -> ok_or_fail (SQ.check_invariants queue))
    ()

let test_sq_tall_nodes () =
  (* p = 0.9: nearly every node reaches many levels; lock traffic per
     operation is maximal. *)
  with_resource
    ~setup:(fun () -> SQ.create ~p:0.9 ~max_level:12 ~seed:5L ())
    ~workers:
      (List.init 8 (fun p queue ->
           for i = 0 to 49 do
             if i land 1 = 0 then ignore (SQ.insert queue ((i * 8) + p) i)
             else ignore (SQ.delete_min queue)
           done))
    ~validate:(fun queue -> ok_or_fail (SQ.check_invariants queue))
    ()

(* --- stalled processors -------------------------------------------------------- *)

(* A processor that stalls for a long time *between* operations while
   holding nothing must not impede others (no global locks in the
   SkipQueue — the property the paper claims over heaps).  The stalled
   processor's presence is felt only through the reclamation registry,
   which must simply delay collection, not block operations. *)
let test_sq_stalled_processor_does_not_block () =
  let fast_done = ref 0 in
  let recl_stats = ref None in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let recl = SQ.Reclaim.create () in
        let q = SQ.create ~reclamation:recl ~seed:6L () in
        for i = 0 to 99 do
          ignore (SQ.insert q i i)
        done;
        (* the stalled processor enters the structure and naps *)
        Machine.spawn (fun () ->
            ignore (SQ.delete_min q);
            Machine.work 50_000_000;
            ignore (SQ.delete_min q));
        (* fast processors churn meanwhile *)
        for _ = 1 to 8 do
          Machine.spawn (fun () ->
              for _ = 1 to 10 do
                ignore (SQ.delete_min q)
              done;
              incr fast_done)
        done;
        (* collector runs during the stall; it must reclaim only what is
           safe (the stalled processor is *outside* the structure while
           napping, so in this schedule everything retired before the nap
           is collectable) *)
        Machine.spawn (fun () ->
            Machine.work 10_000_000;
            ignore (SQ.Reclaim.collect recl);
            recl_stats := Some (SQ.Reclaim.stats recl)))
  in
  check_int "all fast processors finished" 8 !fast_done;
  match !recl_stats with
  | None -> Alcotest.fail "collector never ran"
  | Some s -> check "collection made progress during the stall" true (stat "reclaimed" s > 0)

(* --- heap adversaries ------------------------------------------------------------ *)

let test_heap_descending_inserts () =
  (* Every insert is a new minimum: each bubbles all the way to the root,
     colliding with every other insert — the heap's worst insertion
     pattern.  Correctness must survive it. *)
  with_resource
    ~setup:(fun () -> Heap.create ~capacity:1024 ())
    ~workers:
      (List.init 8 (fun p heap ->
           for i = 0 to 49 do
             Heap.insert heap (1_000_000 - ((i * 8) + p)) i
           done))
    ~validate:(fun heap ->
      ok_or_fail (Heap.check_invariants heap);
      check_int "all present" 400 (Heap.size heap);
      let sorted = Heap.to_sorted_list heap |> List.map fst in
      check "drains sorted" true (sorted = List.sort compare sorted))
    ()

let test_heap_capacity_boundary_churn () =
  (* Fill to capacity, then alternate insert/delete at the boundary. *)
  let ok = ref true in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let h = Heap.create ~capacity:16 () in
        for i = 1 to 16 do
          Heap.insert h i i
        done;
        (match Heap.delete_min h with Some (1, _) -> () | _ -> ok := false);
        Heap.insert h 100 100;
        (try
           Heap.insert h 101 101;
           ok := false
         with Heap.Full -> ());
        for _ = 1 to 17 do
          ignore (Heap.delete_min h)
        done;
        if Heap.delete_min h <> None then ok := false;
        match Heap.check_invariants h with Ok () -> () | Error _ -> ok := false)
  in
  check "boundary behaviour" true !ok

let test_heap_empty_swarm () =
  let got = ref 0 in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let h = Heap.create ~capacity:64 () in
        for _ = 1 to 32 do
          Machine.spawn (fun () ->
              for _ = 1 to 5 do
                match Heap.delete_min h with Some _ -> incr got | None -> ()
              done)
        done)
  in
  check_int "nothing from empty heap" 0 !got

(* deterministic seed sweep: the same stress under many schedules *)
let test_sq_seed_sweep () =
  for seed = 1 to 20 do
    let inserted = ref 0 and deleted = ref 0 in
    with_resource
      ~setup:(fun () -> SQ.create ~seed:(Int64.of_int seed) ())
      ~workers:
        (List.init 12 (fun p queue ->
             let rng = Rng.of_seed (Int64.of_int ((seed * 100) + p)) in
             for i = 0 to 24 do
               if Rng.bernoulli rng 0.6 then begin
                 ignore (SQ.insert queue ((p * 10_000) + (seed * 100) + i) i);
                 incr inserted
               end
               else
                 match SQ.delete_min queue with
                 | Some _ -> incr deleted
                 | None -> ()
             done))
      ~validate:(fun queue ->
        (match SQ.check_invariants queue with
        | Ok () -> ()
        | Error m -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed m));
        if !inserted <> !deleted + SQ.size queue then
          Alcotest.fail (Printf.sprintf "seed %d: conservation broken" seed))
      ()
  done

(* Mixed operation stress: delete_min, delete-by-key and find racing over
   the same keys; every element must leave the queue exactly once, through
   exactly one of the two removal paths. *)
let test_sq_mixed_removal_paths () =
  let by_min = ref 0 and by_key = ref 0 and inserted = ref 0 in
  with_resource
    ~setup:(fun () ->
      let q = SQ.create ~seed:7L () in
      for i = 0 to 199 do
        ignore (SQ.insert q i i);
        incr inserted
      done;
      q)
    ~workers:
      (List.init 12 (fun p queue ->
           let rng = Rng.of_seed (Int64.of_int (500 + p)) in
           for i = 0 to 39 do
             match Rng.int rng 4 with
             | 0 ->
               (* targeted delete of a key that may or may not be present *)
               let k = Rng.int rng 300 in
               (match SQ.delete queue k with Some _ -> incr by_key | None -> ())
             | 1 -> (
               match SQ.delete_min queue with Some _ -> incr by_min | None -> ())
             | 2 -> ignore (SQ.find queue (Rng.int rng 300))
             | _ ->
               let k = 1000 + (p * 100) + i in
               ignore (SQ.insert queue k k);
               incr inserted
           done))
    ~validate:(fun queue ->
      ok_or_fail (SQ.check_invariants queue);
      check_int "each element leaves exactly once" !inserted
        (!by_min + !by_key + SQ.size queue);
      check "both removal paths were exercised" true (!by_min > 0 && !by_key > 0))
    ()

(* --- schedule fuzzing (qcheck) ------------------------------------------------ *)

(* A random plan: per-processor operation lists.  The simulator makes each
   plan's schedule deterministic, so qcheck shrinking yields minimal
   failing plans. *)
type plan_op = P_insert of int | P_delete | P_delete_key of int | P_find of int

let plan_gen =
  QCheck.Gen.(
    let op =
      frequency
        [
          (4, map (fun k -> P_insert k) (int_bound 50));
          (3, return P_delete);
          (2, map (fun k -> P_delete_key k) (int_bound 50));
          (1, map (fun k -> P_find k) (int_bound 50));
        ]
    in
    let proc_ops = list_size (1 -- 15) op in
    list_size (1 -- 8) proc_ops)

let plan_print plan =
  String.concat " | "
    (List.map
       (fun ops ->
         String.concat ","
           (List.map
              (function
                | P_insert k -> Printf.sprintf "i%d" k
                | P_delete -> "d"
                | P_delete_key k -> Printf.sprintf "x%d" k
                | P_find k -> Printf.sprintf "f%d" k)
              ops))
       plan)

let arbitrary_plan = QCheck.make ~print:plan_print plan_gen

(* Execute a plan against a queue implementation; returns
   (inserted, deleted, leftover, invariants). *)
let execute_plan_sq ~mode plan =
  let inserted = ref 0 and deleted = ref 0 in
  let leftover = ref 0 in
  let invariants = ref (Ok ()) in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = SQ.create ~mode ~seed:11L () in
        List.iteri
          (fun p ops ->
            Machine.spawn (fun () ->
                List.iteri
                  (fun i op ->
                    match op with
                    | P_insert k ->
                      (* unique keys: plan key is clustered but disambiguated *)
                      ignore (SQ.insert q ((k * 1000) + (p * 50) + i) 0);
                      incr inserted
                    | P_delete -> (
                      match SQ.delete_min q with
                      | Some _ -> incr deleted
                      | None -> ())
                    | P_delete_key k -> (
                      (* aim at keys other processors plausibly inserted *)
                      match SQ.delete q ((k * 1000) + (((p + 1) mod 8) * 50) + i) with
                      | Some _ -> incr deleted
                      | None -> ())
                    | P_find k -> ignore (SQ.find q (k * 1000)))
                  ops))
          plan;
        Machine.spawn (fun () ->
            Machine.work (1 lsl 50);
            invariants := SQ.check_invariants q;
            leftover := SQ.size q))
  in
  (!inserted, !deleted, !leftover, !invariants)

let prop_sq_plans_conserve mode name =
  QCheck.Test.make ~name ~count:60 arbitrary_plan (fun plan ->
      let inserted, deleted, leftover, invariants = execute_plan_sq ~mode plan in
      invariants = Ok () && inserted = deleted + leftover)

(* The heap plan executor only understands insert/delete_min; project the
   richer plan onto those. *)
let project_plan plan =
  List.map
    (List.filter_map (function
      | P_insert k -> Some (P_insert k)
      | P_delete -> Some P_delete
      | P_delete_key _ | P_find _ -> None))
    plan

let prop_heap_plans_conserve =
  QCheck.Test.make ~name:"heap random plans conserve elements" ~count:60
    arbitrary_plan (fun plan ->
      let plan = project_plan plan in
      let inserted = ref 0 and deleted = ref 0 in
      let leftover = ref 0 in
      let invariants = ref (Ok ()) in
      let (_ : Machine.report) =
        Machine.run (fun () ->
            let h = Heap.create ~capacity:512 () in
            List.iteri
              (fun p ops ->
                Machine.spawn (fun () ->
                    List.iteri
                      (fun i op ->
                        match op with
                        | P_insert k ->
                          Heap.insert h ((k * 1000) + (p * 50) + i) 0;
                          incr inserted
                        | P_delete -> (
                          match Heap.delete_min h with
                          | Some _ -> incr deleted
                          | None -> ())
                        | P_delete_key _ | P_find _ -> ())
                      ops))
              plan;
            Machine.spawn (fun () ->
                Machine.work (1 lsl 50);
                invariants := Heap.check_invariants h;
                leftover := Heap.size h))
      in
      !invariants = Ok () && !inserted = !deleted + !leftover)

(* Small plans with full event recording, validated by the complete
   Definition-1 check — the strongest end-to-end check the external
   interface admits. *)
(* The Definition-1 oracle models Insert/Delete-min only, so small plans
   restrict to those two operations. *)
let small_plan_gen =
  QCheck.Gen.(
    let op = map (function None -> P_delete | Some k -> P_insert k)
        (option (int_bound 10)) in
    let proc_ops = list_size (1 -- 5) op in
    list_size (1 -- 4) proc_ops)

let arbitrary_small_plan = QCheck.make ~print:plan_print small_plan_gen

let small_plan_definition1 ~mode ~name =
  QCheck.Test.make ~name ~count:120 arbitrary_small_plan (fun plan ->
      let events = ref [] in
      let (_ : Machine.report) =
        Machine.run (fun () ->
            let q = SQ.create ~mode ~seed:13L () in
            List.iteri
              (fun p ops ->
                Machine.spawn (fun () ->
                    List.iteri
                      (fun i op ->
                        match op with
                        | P_insert k ->
                          let key = (k * 1000) + (p * 50) + i in
                          let invoked = Machine.probe_time () in
                          ignore (SQ.insert q key (p * 100 + i));
                          let responded = Machine.probe_time () in
                          events :=
                            { Oracle.proc = p;
                              op = Oracle.Insert { key; id = (p * 100) + i };
                              invoked; responded }
                            :: !events
                        | P_delete ->
                          let invoked = Machine.probe_time () in
                          let result =
                            match SQ.delete_min q with
                            | Some (k, v) -> Some (k, v)
                            | None -> None
                          in
                          let responded = Machine.probe_time () in
                          events :=
                            { Oracle.proc = p;
                              op = Oracle.Delete_min { result };
                              invoked; responded }
                            :: !events
                        | P_delete_key _ | P_find _ ->
                          (* the small-plan generator never emits these *)
                          assert false)
                      ops))
              plan)
      in
      (* delete results carry value ids; rebuild them as (key, id) *)
      Oracle.check_well_formed !events = Ok ()
      && Oracle.check_strict !events = Ok ())

let () =
  Alcotest.run "adversarial"
    [
      ( "skipqueue",
        [
          Alcotest.test_case "ascending inserts vs deleters" `Quick
            test_sq_ascending_inserts_vs_deleters;
          Alcotest.test_case "descending inserts vs deleters" `Quick
            test_sq_descending_inserts_vs_deleters;
          Alcotest.test_case "delete swarm on empty" `Quick test_sq_delete_on_empty_swarm;
          Alcotest.test_case "single-element churn" `Quick test_sq_single_element_churn;
          Alcotest.test_case "max_level 1 degenerates gracefully" `Quick
            test_sq_max_level_one_is_a_linked_list;
          Alcotest.test_case "tall nodes (p=0.9)" `Quick test_sq_tall_nodes;
          Alcotest.test_case "stalled processor does not block" `Quick
            test_sq_stalled_processor_does_not_block;
          Alcotest.test_case "20-seed schedule sweep" `Quick test_sq_seed_sweep;
          Alcotest.test_case "mixed removal paths" `Quick test_sq_mixed_removal_paths;
        ] );
      ( "heap",
        [
          Alcotest.test_case "descending inserts" `Quick test_heap_descending_inserts;
          Alcotest.test_case "capacity boundary churn" `Quick
            test_heap_capacity_boundary_churn;
          Alcotest.test_case "empty swarm" `Quick test_heap_empty_swarm;
        ] );
      ( "schedule-fuzzing",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sq_plans_conserve SQ.Strict "strict skipqueue random plans conserve";
            prop_sq_plans_conserve SQ.Relaxed "relaxed skipqueue random plans conserve";
            prop_heap_plans_conserve;
            small_plan_definition1 ~mode:SQ.Strict
              ~name:"strict skipqueue: exhaustive Definition-1 on small plans";
            (* The relaxed queue's only extra freedom — returning an element
               inserted concurrently with the delete — is precisely what the
               interval-based Definition-1 check treats as optional, so it must
               pass the same oracle. *)
            small_plan_definition1 ~mode:SQ.Relaxed
              ~name:"relaxed skipqueue: exhaustive Definition-1 on small plans";
          ] );
    ]
