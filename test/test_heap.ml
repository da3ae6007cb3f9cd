(* Tests for the Hunt et al. concurrent heap: sequential semantics,
   bit-reversal placement, simulated concurrent stress with oracle checks,
   and native-domain stress. *)

module Machine = Repro_sim.Machine
module Sim_rt = Repro_sim.Sim_runtime
module Native_rt = Repro_runtime.Native_runtime
module Rng = Repro_util.Rng
module H_sim = Repro_heap.Hunt_heap.Make (Sim_rt)
module H_native = Repro_heap.Hunt_heap.Make (Native_rt)
module Oracle = Repro_pqueue.Oracle

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ok_or_fail = function Ok () -> () | Error m -> Alcotest.fail m

let in_sim f =
  let result = ref None in
  let (_ : Machine.report) = Machine.run (fun () -> result := Some (f ())) in
  Option.get !result

(* --- sequential --------------------------------------------------------- *)

let test_ordered_drain () =
  in_sim (fun () ->
      let h = H_sim.create ~capacity:64 () in
      List.iter (fun k -> H_sim.insert h k (k * 2)) [ 9; 4; 7; 1; 8; 3 ];
      check_int "size" 6 (H_sim.size h);
      ok_or_fail (H_sim.check_invariants h);
      let drained = H_sim.to_sorted_list h in
      Alcotest.(check (list (pair int int)))
        "ascending"
        [ (1, 2); (3, 6); (4, 8); (7, 14); (8, 16); (9, 18) ]
        drained)

let test_empty () =
  in_sim (fun () ->
      let h = H_sim.create ~capacity:8 () in
      check "empty" true (H_sim.delete_min h = None);
      H_sim.insert h 1 1;
      ignore (H_sim.delete_min h);
      check "empty again" true (H_sim.delete_min h = None);
      ok_or_fail (H_sim.check_invariants h))

let test_duplicates () =
  in_sim (fun () ->
      let h = H_sim.create ~capacity:16 () in
      List.iter (fun k -> H_sim.insert h k k) [ 5; 5; 5; 1; 1 ];
      check_int "size" 5 (H_sim.size h);
      let keys = List.map fst (H_sim.to_sorted_list h) in
      Alcotest.(check (list int)) "sorted with dups" [ 1; 1; 5; 5; 5 ] keys)

let test_full () =
  in_sim (fun () ->
      let h = H_sim.create ~capacity:4 () in
      for i = 1 to 4 do
        H_sim.insert h i i
      done;
      check "full raises" true
        (try
           H_sim.insert h 5 5;
           false
         with H_sim.Full -> true))

let test_random_vs_model () =
  in_sim (fun () ->
      let h = H_sim.create ~capacity:512 () in
      let rng = Rng.of_seed 77L in
      let model = ref [] in
      for i = 0 to 600 do
        if Rng.bool rng || !model = [] then begin
          let k = Rng.int rng 1000 in
          H_sim.insert h k i;
          model := k :: !model
        end
        else begin
          let expected = List.fold_left Int.min max_int !model in
          match H_sim.delete_min h with
          | None -> Alcotest.fail "heap empty but model is not"
          | Some (k, _) ->
            check_int "matches model min" expected k;
            model :=
              (let rec remove_one = function
                 | [] -> []
                 | x :: rest -> if x = k then rest else x :: remove_one rest
               in
               remove_one !model)
        end
      done;
      ok_or_fail (H_sim.check_invariants h))

(* qcheck: arbitrary op sequences against the sequential sorted list from
   lib/pqueue.  Keys compare only (under duplicate keys either id is a
   correct answer); the final drains must agree as key multisets too. *)
module Model = Repro_pqueue.Sorted_list

let qcheck_matches_model =
  let gen = QCheck.(list_of_size Gen.(int_range 0 200) (int_range (-1) 60)) in
  QCheck.Test.make ~count:60 ~name:"heap matches sequential model" gen (fun ops ->
      in_sim (fun () ->
          let h = H_sim.create ~capacity:512 () in
          let m = Model.create () in
          List.iteri
            (fun i op ->
              if op < 0 then begin
                let got = Option.map fst (H_sim.delete_min h) in
                let want = Option.map fst (Model.delete_min m) in
                if got <> want then QCheck.Test.fail_reportf "delete-min mismatch at op %d" i
              end
              else begin
                H_sim.insert h op i;
                Model.insert m op i
              end)
            ops;
          ok_or_fail (H_sim.check_invariants h);
          List.map fst (H_sim.to_sorted_list h) = List.map fst (Model.to_list m)))

(* --- simulated concurrency ---------------------------------------------- *)

let stress_sim ~procs ~ops ~key_range ~seed () =
  let events = Array.make procs [] in
  let drained = ref [] in
  let initial = ref [] in
  let invariants = ref (Ok ()) in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let h = H_sim.create ~capacity:8192 () in
        let stride = (procs * ops) + 100 in
        let root_rng = Rng.of_seed seed in
        for i = 0 to 19 do
          let key = (Rng.int root_rng key_range * stride) + (procs * ops) + i in
          let id = 900_000_000 + i in
          H_sim.insert h key id;
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
                  H_sim.insert h key id;
                  let responded = Machine.get_time () in
                  events.(p) <-
                    { Oracle.proc = p; op = Oracle.Insert { key; id }; invoked; responded }
                    :: events.(p)
                end
                else begin
                  let invoked = Machine.get_time () in
                  let result = H_sim.delete_min h in
                  let responded = Machine.get_time () in
                  events.(p) <-
                    { Oracle.proc = p; op = Oracle.Delete_min { result }; invoked; responded }
                    :: events.(p)
                end
              done)
        done;
        Machine.spawn (fun () ->
            Machine.work 500_000_000;
            invariants := H_sim.check_invariants h;
            let rec drain () =
              match H_sim.delete_min h with
              | None -> ()
              | Some kv ->
                drained := kv :: !drained;
                drain ()
            in
            drain ()))
  in
  let events = Array.to_list events |> List.concat in
  ok_or_fail !invariants;
  ok_or_fail (Oracle.check_well_formed events);
  ok_or_fail
    (Oracle.check_conservation ~initial:!initial ~drained:(List.rev !drained) events)

let test_stress_small () = stress_sim ~procs:8 ~ops:60 ~key_range:50 ~seed:31L ()
let test_stress_large () = stress_sim ~procs:32 ~ops:40 ~key_range:10_000 ~seed:32L ()
let test_stress_wide () = stress_sim ~procs:64 ~ops:15 ~key_range:8 ~seed:33L ()

(* The heap under concurrency is not strictly linearizable for delete_min
   ordering (in-flight inserts may be grabbed), but with quiescent phases
   it must agree with the sequential heap. *)
let test_phased_agreement () =
  in_sim (fun () ->
      let h = H_sim.create ~capacity:1024 () in
      let inserted = ref [] in
      (* Phase 1: parallel inserts. *)
      let rng = Rng.of_seed 55L in
      let keys = Array.init 100 (fun i -> (Rng.int rng 1000 * 200) + i) in
      Array.iter (fun k -> inserted := k :: !inserted) keys;
      let (_ : unit) =
        let remaining = ref 100 in
        for p = 0 to 9 do
          Machine.spawn (fun () ->
              for i = 0 to 9 do
                H_sim.insert h keys.((p * 10) + i) ((p * 10) + i)
              done;
              decr remaining)
        done
      in
      (* Phase 2 (after quiescence): drain must be fully sorted. *)
      Machine.spawn (fun () ->
          Machine.work 100_000_000;
          (match H_sim.check_invariants h with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          let drained = H_sim.to_sorted_list h |> List.map fst in
          let expected = List.sort compare !inserted in
          Alcotest.(check (list int)) "drain equals sorted inserts" expected drained))

(* --- native -------------------------------------------------------------- *)

let test_native_stress () =
  let procs = 4 and ops = 1_000 in
  let h = H_native.create ~capacity:(procs * ops * 2) () in
  let deleted = Array.make procs [] in
  let inserted = Array.make procs [] in
  Native_rt.run_processors procs (fun p ->
      let rng = Rng.of_seed (Int64.of_int (3000 + p)) in
      for i = 0 to ops - 1 do
        let id = (p * 1_000_000) + i in
        if Rng.bool rng then begin
          let key = (Rng.int rng 500 * ((procs * ops) + 1)) + (p * ops) + i in
          H_native.insert h key id;
          inserted.(p) <- (key, id) :: inserted.(p)
        end
        else
          match H_native.delete_min h with
          | Some kv -> deleted.(p) <- kv :: deleted.(p)
          | None -> ()
      done);
  ok_or_fail (H_native.check_invariants h);
  let drained = H_native.to_sorted_list h in
  let module S = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let all_in = S.of_list (Array.to_list inserted |> List.concat) in
  let all_out =
    S.union (S.of_list (Array.to_list deleted |> List.concat)) (S.of_list drained)
  in
  check "no lost or invented elements" true (S.equal all_in all_out)

let () =
  Alcotest.run "hunt-heap"
    [
      ( "sequential",
        [
          Alcotest.test_case "ordered drain" `Quick test_ordered_drain;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "duplicates" `Quick test_duplicates;
          Alcotest.test_case "full" `Quick test_full;
          Alcotest.test_case "random vs model" `Quick test_random_vs_model;
          QCheck_alcotest.to_alcotest qcheck_matches_model;
        ] );
      ( "simulated-concurrency",
        [
          Alcotest.test_case "stress small keys" `Quick test_stress_small;
          Alcotest.test_case "stress large keys" `Quick test_stress_large;
          Alcotest.test_case "stress 64 procs" `Quick test_stress_wide;
          Alcotest.test_case "phased agreement" `Quick test_phased_agreement;
        ] );
      ( "native",
        [ Alcotest.test_case "4-domain stress" `Quick test_native_stress ] );
    ]
