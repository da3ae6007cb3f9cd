(* Tests for the sequential queues (the MultiQueue's shard heap and the
   sorted-list model) and the history oracle, whose greedy Definition-1
   check is tested against a factorial search over every order. *)

module Rng = Repro_util.Rng
module Heap = Repro_pqueue.Seq_heap
module Sorted = Repro_pqueue.Sorted_list
module Oracle = Repro_pqueue.Oracle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ok_or_fail = function Ok () -> () | Error m -> Alcotest.fail m

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
  let h = Heap.create () in
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

(* --- heap drain order (property) ------------------------------------------ *)

let prop_heap_drains_sorted =
  QCheck.Test.make ~name:"seq-heap drains in sorted order" ~count:100
    QCheck.(list_of_size Gen.(0 -- 80) (int_bound 1_000_000))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.insert h k k) keys;
      let rec drain acc =
        match Heap.delete_min h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

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
  ok_or_fail (Oracle.check_strict events)

let test_oracle_rejects_wrong_min () =
  let events =
    [
      ev 0 (Oracle.Insert { key = 5; id = 1 }) 0 1;
      ev 0 (Oracle.Insert { key = 3; id = 2 }) 2 3;
      ev 0 (Oracle.Delete_min { result = Some (5, 1) }) 4 5;
    ]
  in
  check_bool "rejected" true (Result.is_error (Oracle.check_strict events))

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

(* --- Definition 1: the greedy against a factorial reference -------------- *)

(* The reference: searches every order of the Delete-mins consistent with
   their real-time order, in which every delete returns an element with at
   most [max_rank] (default 0) smaller definitely-available elements (or
   EMPTY when at most [max_rank] are available) given the elements consumed
   by the deletes serialized before it.  Factorial, so histories with more
   than [max_deletes] (default 12) Delete-mins are refused. *)
let exhaustive ?(max_deletes = 12) ?(max_rank = 0) events =
  let deletes =
    List.filter
      (fun e -> match e.Oracle.op with Oracle.Delete_min _ -> true | Oracle.Insert _ -> false)
      events
  in
  if List.length deletes > max_deletes then
    Error
      (Printf.sprintf "exhaustive: %d deletes exceed the search bound %d"
         (List.length deletes) max_deletes)
  else begin
    let inserts =
      List.filter_map
        (fun e ->
          match e.Oracle.op with
          | Oracle.Insert { key; id } -> Some (key, id, e)
          | Oracle.Delete_min _ -> None)
        events
    in
    let module Int_set = Set.Make (Int) in
    (* [feasible remaining consumed]: can the remaining deletes be
       serialized?  [consumed] is the set of element ids removed by
       deletes already serialized. *)
    let rec feasible remaining consumed =
      match remaining with
      | [] -> true
      | _ ->
        List.exists
          (fun d ->
            (* d may come next only if no other remaining delete wholly
               precedes it in real time *)
            let must_wait =
              List.exists
                (fun d' -> d' != d && d'.Oracle.responded < d.Oracle.invoked)
                remaining
            in
            if must_wait then false
            else begin
              (* elements certainly present when d runs: fully inserted
                 before d's invocation and not yet consumed *)
              let definitely_available =
                List.filter_map
                  (fun (key, id, ins) ->
                    if ins.Oracle.responded < d.Oracle.invoked && not (Int_set.mem id consumed)
                    then Some key
                    else None)
                  inserts
              in
              let ok =
                match d.Oracle.op with
                | Oracle.Delete_min { result = None } ->
                  List.length definitely_available <= max_rank
                | Oracle.Delete_min { result = Some (k, id) } ->
                  (not (Int_set.mem id consumed))
                  && List.exists
                       (fun (_, id', ins) -> id' = id && ins.Oracle.invoked < d.Oracle.responded)
                       inserts
                  && List.length (List.filter (fun y -> y < k) definitely_available)
                     <= max_rank
                | Oracle.Insert _ -> false
              in
              ok
              &&
              let consumed' =
                match d.Oracle.op with
                | Oracle.Delete_min { result = Some (_, id) } -> Int_set.add id consumed
                | Oracle.Delete_min { result = None } | Oracle.Insert _ -> consumed
              in
              feasible (List.filter (fun d' -> d' != d) remaining) consumed'
            end)
          remaining
    in
    if feasible deletes Int_set.empty then Ok ()
    else Error "no rank-bounded serialization of the Delete-mins exists"
  end

(* Both Definition-1 checks, which must agree; the greedy's verdict. *)
let definition1 events =
  let greedy = Oracle.check_strict events in
  check_bool "greedy agrees with the reference" (Result.is_ok (exhaustive events))
    (Result.is_ok greedy);
  greedy

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
  ok_or_fail (definition1 events)

let test_exhaustive_rejects_wrong_min () =
  let events =
    [
      ev 0 (Oracle.Insert { key = 5; id = 1 }) 0 1;
      ev 0 (Oracle.Insert { key = 3; id = 2 }) 2 3;
      ev 1 (Oracle.Delete_min { result = Some (5, 1) }) 10 11;
    ]
  in
  check_bool "rejected" true (Result.is_error (definition1 events))

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
  check_bool "rejected" true (Result.is_error (definition1 events))

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
  ok_or_fail (definition1 events)

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
  check_bool "rejected" true (Result.is_error (definition1 events))

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
  ok_or_fail (definition1 events)

let test_exhaustive_bound () =
  let events =
    List.init 13 (fun i -> ev i (Oracle.Delete_min { result = None }) (10 * i) ((10 * i) + 1))
  in
  check_bool "bound enforced" true
    (Result.is_error (exhaustive ~max_deletes:12 events));
  ok_or_fail (Oracle.check_strict events)

let prop_exhaustive_agrees_with_conservative =
  (* On random small *sequential* histories generated by replaying a real
     priority queue, both checkers must accept. *)
  QCheck.Test.make ~name:"exhaustive accepts real sequential histories" ~count:100
    QCheck.(list_of_size Gen.(0 -- 10) (option (int_bound 20)))
    (fun ops ->
      let model = Sorted.create () in
      let time = ref 0 in
      let next_id = ref 0 in
      let events =
        List.map
          (fun op ->
            let invoked = !time in
            time := !time + 2;
            match op with
            | Some k ->
              incr next_id;
              let id = !next_id in
              Sorted.insert model (k * 100 + id) id;
              ev 0 (Oracle.Insert { key = k * 100 + id; id }) invoked (invoked + 1)
            | None ->
              ev 0 (Oracle.Delete_min { result = Sorted.delete_min model }) invoked (invoked + 1))
          ops
      in
      exhaustive events = Ok () && Oracle.check_strict events = Ok ())

(* Random histories of at most 8 deletes, most of them legal by
   construction: every operation gets an interval in a short time range
   (so stamps collide, and [invoked = responded] occurs) and a
   linearization point inside it, and replaying the points in order
   against a multiset gives each delete its result.  Four illegal
   variants perturb them: two deletes swap results, one delete repeats
   another's result, an insert moves to start at or after a delete's
   response, or an insert's response moves to just before a delete's
   invocation. *)
let gen_history st =
  let int n = Random.State.int st n in
  let interval () =
    let at = int 20 in
    (at, at + int 6)
  in
  let n_ins = int 9 and n_del = 1 + int 8 in
  let ops =
    List.init n_ins (fun i -> `Insert (int 6, i + 1, interval ()))
    @ List.init n_del (fun i -> `Delete (i, interval ()))
  in
  (* linearization point: a time inside the interval, ties broken at random *)
  let point (inv, resp) = (inv + int (resp - inv + 1), Random.State.bits st) in
  let ops =
    List.map (fun op -> match op with `Insert (_, _, iv) | `Delete (_, iv) -> (point iv, op)) ops
    |> List.sort (fun (p1, _) (p2, _) -> compare p1 p2)
  in
  let live = ref [] in
  let events =
    List.mapi
      (fun proc (_, op) ->
        match op with
        | `Insert (key, id, (inv, resp)) ->
          live := (key, id) :: !live;
          ev proc (Oracle.Insert { key; id }) inv resp
        | `Delete (_, (inv, resp)) ->
          let result =
            match List.sort compare !live with
            | [] -> None
            | x :: rest ->
              live := rest;
              Some x
          in
          ev proc (Oracle.Delete_min { result }) inv resp)
      ops
    |> Array.of_list
  in
  let pick kind =
    let idx =
      List.filter
        (fun i ->
          match (events.(i).Oracle.op, kind) with
          | Oracle.Insert _, `Insert | Oracle.Delete_min _, `Delete -> true
          | _ -> false)
        (List.init (Array.length events) Fun.id)
    in
    match idx with [] -> None | _ -> Some (List.nth idx (int (List.length idx)))
  in
  (match (int 5, pick `Delete, pick `Delete, pick `Insert) with
   | 1, Some i, Some j, _ when i <> j ->
     let op_i = events.(i).Oracle.op in
     events.(i) <- { (events.(i)) with op = events.(j).Oracle.op };
     events.(j) <- { (events.(j)) with op = op_i }
   | 2, Some i, Some j, _ when i <> j ->
     events.(i) <- { (events.(i)) with op = events.(j).Oracle.op }
   | 3, Some d, _, Some e ->
     let invoked = events.(d).Oracle.responded + int 2 in
     let dur = events.(e).Oracle.responded - events.(e).Oracle.invoked in
     events.(e) <- { (events.(e)) with invoked; responded = invoked + dur }
   | 4, Some d, _, Some e ->
     let responded = events.(d).Oracle.invoked - 1 in
     events.(e) <-
       { (events.(e)) with responded; invoked = Int.min events.(e).Oracle.invoked responded }
   | _ -> ());
  Array.to_list events

let print_history events =
  String.concat "; "
    (List.map
       (fun e ->
         let op =
           match e.Oracle.op with
           | Oracle.Insert { key; id } -> Printf.sprintf "ins %d#%d" key id
           | Oracle.Delete_min { result = None } -> "del EMPTY"
           | Oracle.Delete_min { result = Some (key, id) } -> Printf.sprintf "del %d#%d" key id
         in
         Printf.sprintf "p%d %s [%d,%d]" e.Oracle.proc op e.Oracle.invoked e.Oracle.responded)
       events)

(* Definition 1 is rank 0; ranks 1 and 3 exercise the relaxed counts. *)
let ranks = [ 0; 1; 3 ]

let prop_greedy_agrees_with_reference =
  QCheck.Test.make ~name:"greedy Definition-1 check agrees with the factorial search"
    ~count:2000 (QCheck.make ~print:print_history gen_history) (fun events ->
      List.for_all
        (fun max_rank ->
          Result.is_ok (exhaustive ~max_rank events)
          = Result.is_ok (Oracle.check_ranked ~max_rank events))
        ranks)

(* The differential property is only as strong as its mix: the generator
   must produce both verdicts in bulk, at rank 0 and at rank 1. *)
let test_generator_mix () =
  List.iter
    (fun max_rank ->
      let st = Random.State.make [| 27 |] in
      let legal = ref 0 in
      for _ = 1 to 2000 do
        if Result.is_ok (exhaustive ~max_rank (gen_history st)) then incr legal
      done;
      check_bool
        (Printf.sprintf "%d of 2000 legal at rank %d" !legal max_rank)
        true
        (!legal > 400 && !legal < 1600))
    [ 0; 1 ]

let () =
  Alcotest.run "pqueue"
    [
      ( "seq-heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "growth" `Quick test_heap_growth;
          Alcotest.test_case "sorted list" `Quick test_heap_sorted_list;
        ] );
      ( "sorted-list",
        [
          Alcotest.test_case "basic" `Quick test_sorted_list_basic;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_heap_drains_sorted ]);
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
          @ [
              QCheck_alcotest.to_alcotest prop_exhaustive_agrees_with_conservative;
              QCheck_alcotest.to_alcotest prop_greedy_agrees_with_reference;
              Alcotest.test_case "differential mix" `Quick test_generator_mix;
            ] );
    ]
