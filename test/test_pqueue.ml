(* Tests for the sequential reference structures and the history oracle. *)

module Rng = Repro_util.Rng
module Key = Repro_pqueue.Key
module Skiplist = Repro_pqueue.Seq_skiplist.Make (Key.Int)
module Heap = Repro_pqueue.Seq_heap.Make (Key.Int)
module Pairing = Repro_pqueue.Pairing_heap.Make (Key.Int)
module Sorted = Repro_pqueue.Sorted_list.Make (Key.Int)
module Oracle = Repro_pqueue.Oracle.Make (Key.Int)
module Indexed = Repro_pqueue.Indexed_skiplist.Make (Key.Int)
module Dary = Repro_pqueue.Dary_heap.Make (Key.Int)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ok_or_fail = function Ok () -> () | Error m -> Alcotest.fail m


(* --- sequential skiplist ------------------------------------------------ *)

let test_skiplist_basic () =
  let t = Skiplist.create () in
  check_bool "empty" true (Skiplist.is_empty t);
  ignore (Skiplist.insert t 3 "c");
  ignore (Skiplist.insert t 1 "a");
  ignore (Skiplist.insert t 2 "b");
  check_int "length" 3 (Skiplist.length t);
  Alcotest.(check (option string)) "find" (Some "b") (Skiplist.find t 2);
  Alcotest.(check (list (pair int string)))
    "sorted" [ (1, "a"); (2, "b"); (3, "c") ] (Skiplist.to_list t);
  ok_or_fail (Skiplist.check_invariants t)

let test_skiplist_update () =
  let t = Skiplist.create () in
  check_bool "inserted" true (Skiplist.insert t 1 "x" = `Inserted);
  check_bool "updated" true (Skiplist.insert t 1 "y" = `Updated);
  check_int "length still 1" 1 (Skiplist.length t);
  Alcotest.(check (option string)) "new value" (Some "y") (Skiplist.find t 1)

let test_skiplist_delete () =
  let t = Skiplist.of_list (List.init 20 (fun i -> (i, i))) in
  Alcotest.(check (option int)) "delete hit" (Some 7) (Skiplist.delete t 7);
  Alcotest.(check (option int)) "delete miss" None (Skiplist.delete t 7);
  check_int "length" 19 (Skiplist.length t);
  check_bool "gone" false (Skiplist.mem t 7);
  ok_or_fail (Skiplist.check_invariants t)

let test_skiplist_delete_min_drains_sorted () =
  let rng = Rng.of_seed 4L in
  let keys = List.init 200 (fun _ -> Rng.int rng 10_000) in
  let t = Skiplist.create () in
  List.iter (fun k -> ignore (Skiplist.insert t k k)) keys;
  let rec drain acc =
    match Skiplist.delete_min t with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
  in
  let out = drain [] in
  let expected = List.sort_uniq compare keys in
  Alcotest.(check (list int)) "sorted unique drain" expected out

let test_skiplist_peek () =
  let t = Skiplist.create () in
  Alcotest.(check (option (pair int int))) "empty peek" None (Skiplist.peek_min t);
  ignore (Skiplist.insert t 5 50);
  ignore (Skiplist.insert t 2 20);
  Alcotest.(check (option (pair int int))) "peek" (Some (2, 20)) (Skiplist.peek_min t);
  check_int "peek does not remove" 2 (Skiplist.length t)

let test_skiplist_invariants_random () =
  let rng = Rng.of_seed 14L in
  let t = Skiplist.create ~p:0.25 ~max_level:12 () in
  let model = Hashtbl.create 64 in
  for i = 0 to 2_000 do
    let k = Rng.int rng 300 in
    match Rng.int rng 3 with
    | 0 ->
      ignore (Skiplist.insert t k i);
      Hashtbl.replace model k i
    | 1 ->
      let expected = Hashtbl.find_opt model k in
      Alcotest.(check (option int)) "delete matches model" expected (Skiplist.delete t k);
      Hashtbl.remove model k
    | _ ->
      let expected = Hashtbl.find_opt model k in
      Alcotest.(check (option int)) "find matches model" expected (Skiplist.find t k)
  done;
  ok_or_fail (Skiplist.check_invariants t);
  check_int "length matches model" (Hashtbl.length model) (Skiplist.length t)

let test_skiplist_of_list_duplicates () =
  (* update-in-place semantics: the later binding wins *)
  let t = Skiplist.of_list [ (1, "a"); (2, "b"); (1, "c") ] in
  check_int "length" 2 (Skiplist.length t);
  Alcotest.(check (option string)) "later wins" (Some "c") (Skiplist.find t 1)

let test_skiplist_single_level () =
  let t = Skiplist.create ~max_level:1 () in
  List.iter (fun k -> ignore (Skiplist.insert t k k)) [ 5; 2; 9; 2 ];
  check_int "length" 3 (Skiplist.length t);
  ok_or_fail (Skiplist.check_invariants t);
  Alcotest.(check (option (pair int int))) "min" (Some (2, 2)) (Skiplist.delete_min t)

(* --- binary heap --------------------------------------------------------- *)

let test_heap_basic () =
  let h = Heap.create () in
  check_bool "empty" true (Heap.is_empty h);
  List.iter (fun k -> Heap.insert h k (string_of_int k)) [ 5; 3; 8; 1 ];
  Alcotest.(check (option (pair int string))) "peek" (Some (1, "1")) (Heap.peek_min h);
  Alcotest.(check (option (pair int string))) "pop" (Some (1, "1")) (Heap.delete_min h);
  check_int "length" 3 (Heap.length h);
  ok_or_fail (Heap.check_invariants h)

let test_heap_duplicates () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.insert h k k) [ 2; 2; 2; 1 ];
  check_int "all four kept" 4 (Heap.length h);
  Alcotest.(check (option (pair int int))) "min" (Some (1, 1)) (Heap.delete_min h);
  let rec drain acc =
    match Heap.delete_min h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
  in
  Alcotest.(check (list int)) "rest" [ 2; 2; 2 ] (drain [])

let test_heap_growth () =
  let h = Heap.create ~initial_capacity:2 () in
  for i = 1000 downto 1 do
    Heap.insert h i i
  done;
  check_int "length" 1000 (Heap.length h);
  ok_or_fail (Heap.check_invariants h);
  Alcotest.(check (option (pair int int))) "min" (Some (1, 1)) (Heap.delete_min h)

let test_heap_sorted_list () =
  let rng = Rng.of_seed 6L in
  let h = Heap.create () in
  let keys = List.init 100 (fun _ -> Rng.int rng 1000) in
  List.iter (fun k -> Heap.insert h k k) keys;
  let sorted = Heap.to_sorted_list h |> List.map fst in
  Alcotest.(check (list int)) "sorted" (List.sort compare keys) sorted;
  check_int "non destructive" 100 (Heap.length h)

(* --- pairing heap --------------------------------------------------------- *)

let test_pairing_basic () =
  let h = Pairing.of_list [ (3, "c"); (1, "a"); (2, "b") ] in
  check_int "length" 3 (Pairing.length h);
  Alcotest.(check (option (pair int string))) "peek" (Some (1, "a")) (Pairing.peek_min h);
  match Pairing.delete_min h with
  | None -> Alcotest.fail "unexpected empty"
  | Some ((k, _), rest) ->
    check_int "min key" 1 k;
    check_int "rest length" 2 (Pairing.length rest);
    (* Persistence: the original is untouched. *)
    check_int "original intact" 3 (Pairing.length h)

let test_pairing_merge () =
  let a = Pairing.of_list [ (1, 1); (5, 5) ] in
  let b = Pairing.of_list [ (3, 3); (0, 0) ] in
  let m = Pairing.merge a b in
  Alcotest.(check (list (pair int int)))
    "merged drain" [ (0, 0); (1, 1); (3, 3); (5, 5) ] (Pairing.to_sorted_list m)

let test_pairing_sorts () =
  let rng = Rng.of_seed 19L in
  let keys = List.init 500 (fun _ -> Rng.int rng 100_000) in
  let h = Pairing.of_list (List.map (fun k -> (k, k)) keys) in
  let out = Pairing.to_sorted_list h |> List.map fst in
  Alcotest.(check (list int)) "heapsort" (List.sort compare keys) out

(* --- sorted list ----------------------------------------------------------- *)

let test_sorted_list_basic () =
  let l = Sorted.create () in
  List.iter (fun k -> Sorted.insert l k k) [ 4; 2; 9; 2 ];
  check_int "length" 4 (Sorted.length l);
  Alcotest.(check (list (pair int int)))
    "sorted with duplicates" [ (2, 2); (2, 2); (4, 4); (9, 9) ] (Sorted.to_list l);
  ok_or_fail (Sorted.check_invariants l);
  check_bool "head is the minimum" true (Sorted.delete_min l = Some (2, 2));
  check_int "three left" 3 (Sorted.length l);
  check_bool "not empty" false (Sorted.is_empty l)

(* --- d-ary heap --------------------------------------------------------------- *)

let test_dary_basic () =
  let h = Dary.create () in
  check_bool "empty" true (Dary.is_empty h);
  check_int "arity" 4 (Dary.arity h);
  List.iter (fun k -> Dary.insert h k (2 * k)) [ 7; 1; 9; 4; 3 ];
  Alcotest.(check (option (pair int int))) "peek" (Some (1, 2)) (Dary.peek_min h);
  ok_or_fail (Dary.check_invariants h);
  Alcotest.(check (list int)) "drains sorted" [ 1; 3; 4; 7; 9 ]
    (List.map fst (Dary.to_sorted_list h))

let test_dary_arities_agree () =
  let rng = Rng.of_seed 91L in
  let keys = List.init 400 (fun _ -> Rng.int rng 10_000) in
  let drain arity =
    let h = Dary.create ~arity () in
    List.iter (fun k -> Dary.insert h k k) keys;
    ok_or_fail (Dary.check_invariants h);
    let rec go acc =
      match Dary.delete_min h with None -> List.rev acc | Some (k, _) -> go (k :: acc)
    in
    go []
  in
  let reference = List.sort compare keys in
  List.iter
    (fun arity -> Alcotest.(check (list int)) "sorted drain" reference (drain arity))
    [ 2; 3; 4; 8 ]

let test_dary_rejects_bad_arity () =
  Alcotest.check_raises "arity 1" (Invalid_argument "Dary_heap.create: arity < 2")
    (fun () -> ignore (Dary.create ~arity:1 ()))

let test_dary_growth_and_empty () =
  let h = Dary.create ~initial_capacity:1 () in
  for i = 500 downto 1 do
    Dary.insert h i i
  done;
  check_int "length" 500 (Dary.length h);
  ok_or_fail (Dary.check_invariants h);
  for _ = 1 to 500 do
    ignore (Dary.delete_min h)
  done;
  check_bool "drained" true (Dary.delete_min h = None)

(* --- indexed skiplist (Pugh's cookbook extensions) -------------------------- *)

let test_indexed_basic () =
  let t = Indexed.of_list [ (30, "c"); (10, "a"); (20, "b") ] in
  check_int "length" 3 (Indexed.length t);
  Alcotest.(check (option (pair int string))) "nth 0" (Some (10, "a")) (Indexed.nth t 0);
  Alcotest.(check (option (pair int string))) "nth 1" (Some (20, "b")) (Indexed.nth t 1);
  Alcotest.(check (option (pair int string))) "nth 2" (Some (30, "c")) (Indexed.nth t 2);
  Alcotest.(check (option (pair int string))) "nth 3" None (Indexed.nth t 3);
  Alcotest.(check (option (pair int string))) "nth -1" None (Indexed.nth t (-1));
  ok_or_fail (Indexed.check_invariants t)

let test_indexed_rank () =
  let t = Indexed.of_list (List.init 50 (fun i -> (2 * i, i))) in
  Alcotest.(check (option int)) "rank of 0" (Some 0) (Indexed.rank t 0);
  Alcotest.(check (option int)) "rank of 40" (Some 20) (Indexed.rank t 40);
  Alcotest.(check (option int)) "rank of odd" None (Indexed.rank t 41);
  check_int "count_less 41" 21 (Indexed.count_less t 41);
  check_int "count_less 0" 0 (Indexed.count_less t 0);
  check_int "count_less huge" 50 (Indexed.count_less t 1_000_000)

let test_indexed_nth_rank_inverse () =
  let rng = Rng.of_seed 123L in
  let keys = List.sort_uniq compare (List.init 300 (fun _ -> Rng.int rng 10_000)) in
  let t = Indexed.of_list (List.map (fun k -> (k, k)) keys) in
  List.iteri
    (fun i k ->
      Alcotest.(check (option int)) "rank matches index" (Some i) (Indexed.rank t k);
      match Indexed.nth t i with
      | Some (k', _) -> check_int "nth matches key" k k'
      | None -> Alcotest.fail "nth returned None")
    keys;
  ok_or_fail (Indexed.check_invariants t)

let test_indexed_range () =
  let t = Indexed.of_list (List.init 20 (fun i -> (i * 5, i))) in
  Alcotest.(check (list int))
    "inclusive range" [ 20; 25; 30 ]
    (List.map fst (Indexed.range t ~lo:20 ~hi:32));
  Alcotest.(check (list int)) "empty range" [] (List.map fst (Indexed.range t ~lo:21 ~hi:24));
  Alcotest.(check (list int))
    "whole range" (List.init 20 (fun i -> i * 5))
    (List.map fst (Indexed.range t ~lo:(-5) ~hi:1000))

let test_indexed_delete_nth () =
  let t = Indexed.of_list (List.init 10 (fun i -> (i, i))) in
  Alcotest.(check (option (pair int int))) "delete median" (Some (5, 5))
    (Indexed.delete_nth t 5);
  check_int "length" 9 (Indexed.length t);
  Alcotest.(check (option (pair int int))) "index shifts" (Some (6, 6)) (Indexed.nth t 5);
  ok_or_fail (Indexed.check_invariants t)

let test_indexed_merge () =
  let a = Indexed.of_list [ (1, "a1"); (3, "a3"); (5, "a5") ] in
  let b = Indexed.of_list [ (2, "b2"); (3, "b3") ] in
  Indexed.merge a b;
  check_int "src emptied" 0 (Indexed.length b);
  check_int "dst has union" 4 (Indexed.length a);
  Alcotest.(check (option string)) "duplicate takes src value" (Some "b3")
    (Indexed.find a 3);
  ok_or_fail (Indexed.check_invariants a)

let test_indexed_widths_after_churn () =
  let rng = Rng.of_seed 321L in
  let t = Indexed.create ~p:0.25 ~max_level:12 () in
  for i = 0 to 2_000 do
    let k = Rng.int rng 400 in
    if Rng.bool rng then ignore (Indexed.insert t k i) else ignore (Indexed.delete t k)
  done;
  ok_or_fail (Indexed.check_invariants t)

let prop_indexed_nth_equals_sorted =
  QCheck.Test.make ~name:"indexed nth agrees with sorted list" ~count:100
    QCheck.(list_of_size Gen.(0 -- 100) (int_bound 1_000))
    (fun keys ->
      let keys = List.sort_uniq compare keys in
      let t = Indexed.of_list (List.map (fun k -> (k, k)) keys) in
      List.for_all2
        (fun i k -> Indexed.nth t i = Some (k, k))
        (List.init (List.length keys) Fun.id)
        keys
      && Indexed.check_invariants t = Ok ())

let prop_indexed_delete_keeps_widths =
  QCheck.Test.make ~name:"indexed widths survive interleaved deletes" ~count:60
    QCheck.(list_of_size Gen.(0 -- 120) (pair bool (int_bound 60)))
    (fun ops ->
      let t = Indexed.create () in
      List.iter
        (fun (ins, k) ->
          if ins then ignore (Indexed.insert t k k) else ignore (Indexed.delete t k))
        ops;
      Indexed.check_invariants t = Ok ())

(* --- cross-structure agreement (property) ---------------------------------- *)

let prop_structures_agree =
  QCheck.Test.make ~name:"skiplist, heap, pairing agree on drain order" ~count:100
    QCheck.(list_of_size Gen.(0 -- 80) (int_bound 1_000_000))
    (fun keys ->
      (* unique keys so that update-in-place vs duplicate semantics agree *)
      let keys = List.sort_uniq compare keys in
      let sl = Skiplist.create () in
      let h = Heap.create () in
      let ph = ref Pairing.empty in
      List.iter
        (fun k ->
          ignore (Skiplist.insert sl k k);
          Heap.insert h k k;
          ph := Pairing.insert !ph k k)
        keys;
      let rec drain_sl acc =
        match Skiplist.delete_min sl with None -> List.rev acc | Some (k, _) -> drain_sl (k :: acc)
      in
      let rec drain_h acc =
        match Heap.delete_min h with None -> List.rev acc | Some (k, _) -> drain_h (k :: acc)
      in
      let a = drain_sl [] in
      let b = drain_h [] in
      let c = Pairing.to_sorted_list !ph |> List.map fst in
      a = b && b = c && a = List.sort compare keys)

let prop_skiplist_invariants_hold =
  QCheck.Test.make ~name:"skiplist invariants after random ops" ~count:60
    QCheck.(list_of_size Gen.(0 -- 200) (pair bool (int_bound 100)))
    (fun ops ->
      let t = Skiplist.create () in
      List.iter
        (fun (ins, k) ->
          if ins then ignore (Skiplist.insert t k k) else ignore (Skiplist.delete t k))
        ops;
      Skiplist.check_invariants t = Ok ())

(* --- oracle ------------------------------------------------------------------ *)

let ev proc op invoked responded = { Oracle.proc; op; invoked; responded }

let test_oracle_accepts_sequential () =
  let events =
    [
      ev 0 (Oracle.Insert { key = 5; id = 1 }) 0 1;
      ev 0 (Oracle.Insert { key = 3; id = 2 }) 2 3;
      ev 0 (Oracle.Delete_min { result = Some (3, 2) }) 4 5;
      ev 0 (Oracle.Delete_min { result = Some (5, 1) }) 6 7;
      ev 0 (Oracle.Delete_min { result = None }) 8 9;
    ]
  in
  ok_or_fail (Oracle.check_well_formed events);
  ok_or_fail (Oracle.check_strict events);
  ok_or_fail (Oracle.check_relaxed events)

let test_oracle_rejects_wrong_min () =
  let events =
    [
      ev 0 (Oracle.Insert { key = 5; id = 1 }) 0 1;
      ev 0 (Oracle.Insert { key = 3; id = 2 }) 2 3;
      ev 0 (Oracle.Delete_min { result = Some (5, 1) }) 4 5;
    ]
  in
  check_bool "rejected" true (Result.is_error (Oracle.check_strict events));
  check_bool "relaxed also rejects" true (Result.is_error (Oracle.check_relaxed events))

let test_oracle_rejects_empty_lie () =
  let events =
    [
      ev 0 (Oracle.Insert { key = 5; id = 1 }) 0 1;
      ev 1 (Oracle.Delete_min { result = None }) 10 11;
    ]
  in
  check_bool "rejected" true (Result.is_error (Oracle.check_strict events))

let test_oracle_allows_concurrent_race () =
  (* Two overlapping delete_mins may hand out the two smallest in either
     assignment; both must pass. *)
  let events =
    [
      ev 0 (Oracle.Insert { key = 1; id = 1 }) 0 1;
      ev 0 (Oracle.Insert { key = 2; id = 2 }) 2 3;
      ev 1 (Oracle.Delete_min { result = Some (2, 2) }) 10 20;
      ev 2 (Oracle.Delete_min { result = Some (1, 1) }) 10 20;
    ]
  in
  ok_or_fail (Oracle.check_strict events)

let test_oracle_rejects_double_delete () =
  let events =
    [
      ev 0 (Oracle.Insert { key = 1; id = 1 }) 0 1;
      ev 1 (Oracle.Delete_min { result = Some (1, 1) }) 2 3;
      ev 2 (Oracle.Delete_min { result = Some (1, 1) }) 4 5;
    ]
  in
  check_bool "rejected" true (Result.is_error (Oracle.check_well_formed events))

let test_oracle_rejects_overlap_same_proc () =
  let events =
    [
      ev 0 (Oracle.Insert { key = 1; id = 1 }) 0 10;
      ev 0 (Oracle.Insert { key = 2; id = 2 }) 5 15;
    ]
  in
  check_bool "rejected" true (Result.is_error (Oracle.check_well_formed events))

let test_oracle_conservation () =
  let events =
    [
      ev 0 (Oracle.Insert { key = 7; id = 10 }) 0 1;
      ev 0 (Oracle.Delete_min { result = Some (3, 11) }) 2 3;
    ]
  in
  ok_or_fail
    (Oracle.check_conservation ~initial:[ (3, 11) ] ~drained:[ (7, 10) ] events);
  check_bool "missing element caught" true
    (Result.is_error (Oracle.check_conservation ~initial:[ (3, 11) ] ~drained:[] events));
  check_bool "unsorted drain caught" true
    (Result.is_error
       (Oracle.check_conservation
          ~initial:[ (3, 11); (9, 12) ]
          ~drained:[ (9, 12); (7, 10) ]
          events))

(* --- exhaustive Definition-1 checker ------------------------------------------ *)

let test_exhaustive_accepts_sequential () =
  let events =
    [
      ev 0 (Oracle.Insert { key = 5; id = 1 }) 0 1;
      ev 0 (Oracle.Insert { key = 3; id = 2 }) 2 3;
      ev 0 (Oracle.Delete_min { result = Some (3, 2) }) 4 5;
      ev 0 (Oracle.Delete_min { result = Some (5, 1) }) 6 7;
      ev 0 (Oracle.Delete_min { result = None }) 8 9;
    ]
  in
  ok_or_fail (Oracle.check_strict_exhaustive events)

let test_exhaustive_rejects_wrong_min () =
  let events =
    [
      ev 0 (Oracle.Insert { key = 5; id = 1 }) 0 1;
      ev 0 (Oracle.Insert { key = 3; id = 2 }) 2 3;
      ev 1 (Oracle.Delete_min { result = Some (5, 1) }) 10 11;
    ]
  in
  check_bool "rejected" true (Result.is_error (Oracle.check_strict_exhaustive events))

let test_exhaustive_rejects_empty_lie () =
  let events =
    [
      ev 0 (Oracle.Insert { key = 1; id = 1 }) 0 1;
      ev 1 (Oracle.Delete_min { result = None }) 10 20;
      ev 2 (Oracle.Delete_min { result = Some (1, 1) }) 30 40;
    ]
  in
  (* The EMPTY delete wholly precedes the successful one, so no order can
     excuse it. *)
  check_bool "rejected" true (Result.is_error (Oracle.check_strict_exhaustive events))

let test_exhaustive_accepts_racing_assignment () =
  (* Two overlapping deletes hand out the two smallest in "reverse"
     order: a valid serialization exists. *)
  let events =
    [
      ev 0 (Oracle.Insert { key = 1; id = 1 }) 0 1;
      ev 0 (Oracle.Insert { key = 2; id = 2 }) 2 3;
      ev 1 (Oracle.Delete_min { result = Some (2, 2) }) 10 20;
      ev 2 (Oracle.Delete_min { result = Some (1, 1) }) 10 20;
    ]
  in
  ok_or_fail (Oracle.check_strict_exhaustive events)

let test_exhaustive_respects_real_time_order () =
  (* Same results, but the delete that took the larger element wholly
     precedes the one that took the smaller: only the bad order exists. *)
  let events =
    [
      ev 0 (Oracle.Insert { key = 1; id = 1 }) 0 1;
      ev 0 (Oracle.Insert { key = 2; id = 2 }) 2 3;
      ev 1 (Oracle.Delete_min { result = Some (2, 2) }) 10 20;
      ev 2 (Oracle.Delete_min { result = Some (1, 1) }) 30 40;
    ]
  in
  check_bool "rejected" true (Result.is_error (Oracle.check_strict_exhaustive events))

let test_exhaustive_concurrent_insert_optional () =
  (* An element whose insert overlaps the delete may or may not be seen:
     returning the pre-existing larger key must be accepted. *)
  let events =
    [
      ev 0 (Oracle.Insert { key = 10; id = 1 }) 0 1;
      ev 1 (Oracle.Insert { key = 5; id = 2 }) 10 100;
      ev 2 (Oracle.Delete_min { result = Some (10, 1) }) 20 30;
      ev 2 (Oracle.Delete_min { result = Some (5, 2) }) 200 210;
    ]
  in
  ok_or_fail (Oracle.check_strict_exhaustive events)

let test_exhaustive_bound () =
  let events =
    List.init 13 (fun i -> ev i (Oracle.Delete_min { result = None }) (10 * i) ((10 * i) + 1))
  in
  check_bool "bound enforced" true
    (Result.is_error (Oracle.check_strict_exhaustive ~max_deletes:12 events))

let prop_exhaustive_agrees_with_conservative =
  (* On random small *sequential* histories generated by replaying a real
     priority queue, both checkers must accept. *)
  QCheck.Test.make ~name:"exhaustive accepts real sequential histories" ~count:100
    QCheck.(list_of_size Gen.(0 -- 10) (option (int_bound 20)))
    (fun ops ->
      let model = Skiplist.create () in
      let time = ref 0 in
      let next_id = ref 0 in
      let events =
        List.filter_map
          (fun op ->
            let invoked = !time in
            time := !time + 2;
            match op with
            | Some k ->
              incr next_id;
              let id = !next_id in
              if Skiplist.insert model (k * 100 + id) id = `Inserted then
                Some (ev 0 (Oracle.Insert { key = k * 100 + id; id }) invoked (invoked + 1))
              else None
            | None ->
              let result =
                match Skiplist.delete_min model with
                | Some (k, id) -> Some (k, id)
                | None -> None
              in
              Some (ev 0 (Oracle.Delete_min { result }) invoked (invoked + 1)))
          ops
      in
      Oracle.check_strict_exhaustive events = Ok ()
      && Oracle.check_strict events = Ok ())

let () =
  Alcotest.run "pqueue"
    [
      ( "seq-skiplist",
        [
          Alcotest.test_case "basic" `Quick test_skiplist_basic;
          Alcotest.test_case "update" `Quick test_skiplist_update;
          Alcotest.test_case "delete" `Quick test_skiplist_delete;
          Alcotest.test_case "delete_min drains sorted" `Quick
            test_skiplist_delete_min_drains_sorted;
          Alcotest.test_case "peek" `Quick test_skiplist_peek;
          Alcotest.test_case "random ops vs model" `Quick test_skiplist_invariants_random;
          Alcotest.test_case "of_list duplicates" `Quick test_skiplist_of_list_duplicates;
          Alcotest.test_case "single level" `Quick test_skiplist_single_level;
        ] );
      ( "seq-heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "growth" `Quick test_heap_growth;
          Alcotest.test_case "sorted list" `Quick test_heap_sorted_list;
        ] );
      ( "pairing-heap",
        [
          Alcotest.test_case "basic" `Quick test_pairing_basic;
          Alcotest.test_case "merge" `Quick test_pairing_merge;
          Alcotest.test_case "sorts" `Quick test_pairing_sorts;
        ] );
      ( "sorted-list",
        [
          Alcotest.test_case "basic" `Quick test_sorted_list_basic;
        ] );
      ( "dary-heap",
        [
          Alcotest.test_case "basic" `Quick test_dary_basic;
          Alcotest.test_case "arities agree" `Quick test_dary_arities_agree;
          Alcotest.test_case "rejects arity 1" `Quick test_dary_rejects_bad_arity;
          Alcotest.test_case "growth and empty" `Quick test_dary_growth_and_empty;
        ] );
      ( "indexed-skiplist",
        [
          Alcotest.test_case "basic nth" `Quick test_indexed_basic;
          Alcotest.test_case "rank and count_less" `Quick test_indexed_rank;
          Alcotest.test_case "nth/rank inverse" `Quick test_indexed_nth_rank_inverse;
          Alcotest.test_case "range" `Quick test_indexed_range;
          Alcotest.test_case "delete_nth" `Quick test_indexed_delete_nth;
          Alcotest.test_case "merge" `Quick test_indexed_merge;
          Alcotest.test_case "widths after churn" `Quick test_indexed_widths_after_churn;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_structures_agree;
            prop_skiplist_invariants_hold;
            prop_indexed_nth_equals_sorted;
            prop_indexed_delete_keeps_widths;
          ] );
      ( "oracle",
        [
          Alcotest.test_case "accepts sequential" `Quick test_oracle_accepts_sequential;
          Alcotest.test_case "rejects wrong min" `Quick test_oracle_rejects_wrong_min;
          Alcotest.test_case "rejects EMPTY lie" `Quick test_oracle_rejects_empty_lie;
          Alcotest.test_case "allows concurrent race" `Quick test_oracle_allows_concurrent_race;
          Alcotest.test_case "rejects double delete" `Quick test_oracle_rejects_double_delete;
          Alcotest.test_case "rejects overlap in one proc" `Quick
            test_oracle_rejects_overlap_same_proc;
          Alcotest.test_case "conservation" `Quick test_oracle_conservation;
        ] );
      ( "oracle-exhaustive",
        Alcotest.
          [
            test_case "accepts sequential" `Quick test_exhaustive_accepts_sequential;
            test_case "rejects wrong min" `Quick test_exhaustive_rejects_wrong_min;
            test_case "rejects EMPTY lie" `Quick test_exhaustive_rejects_empty_lie;
            test_case "accepts racing assignment" `Quick
              test_exhaustive_accepts_racing_assignment;
            test_case "respects real-time order" `Quick
              test_exhaustive_respects_real_time_order;
            test_case "concurrent insert optional" `Quick
              test_exhaustive_concurrent_insert_optional;
            test_case "search bound" `Quick test_exhaustive_bound;
          ]
          @ [ QCheck_alcotest.to_alcotest prop_exhaustive_agrees_with_conservative ] );
    ]
