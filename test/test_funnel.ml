(* Tests for the combining funnel and the FunnelList priority queue. *)

module Machine = Repro_sim.Machine
module Sim_rt = Repro_sim.Sim_runtime
module Rng = Repro_util.Rng
module Funnel = Repro_funnel.Combining_funnel.Make (Sim_rt)
module FL = Repro_funnel.Funnel_list.Make (Sim_rt)
module Bins = Repro_funnel.Bin_queue.Make (Sim_rt)
module Native_rt = Repro_runtime.Native_runtime
module FL_native = Repro_funnel.Funnel_list.Make (Native_rt)
module Bins_native = Repro_funnel.Bin_queue.Make (Native_rt)
module Oracle = Repro_pqueue.Oracle

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let stat name stats = int_of_float (List.assoc name stats)
let ok_or_fail = function Ok () -> () | Error m -> Alcotest.fail m

let in_sim f =
  let result = ref None in
  let (_ : Machine.report) = Machine.run (fun () -> result := Some (f ())) in
  Option.get !result

(* --- raw funnel ---------------------------------------------------------- *)

(* A request is a counter bump; [apply] sums the batch into an accumulator
   and marks each done. *)
type bump = { amount : int; mutable done_ : bool }

let test_funnel_applies_everything () =
  let total = ref 0 in
  let applied = ref 0 in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let f =
          Funnel.create
            ~apply:(fun batch ->
              List.iter
                (fun r ->
                  total := !total + r.amount;
                  incr applied;
                  r.done_ <- true)
                batch)
            ~is_done:(fun r -> r.done_)
            ~kind_of:(fun _ -> 0)
            ()
        in
        for p = 1 to 40 do
          Machine.spawn (fun () -> Funnel.perform f { amount = p; done_ = false })
        done)
  in
  check_int "all requests applied" 40 !applied;
  check_int "sum correct" (40 * 41 / 2) !total

let test_funnel_combines_under_load () =
  let stats = ref None in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let f =
          Funnel.create ~collision_window:200
            ~apply:(fun batch -> List.iter (fun r -> r.done_ <- true) batch)
            ~is_done:(fun r -> r.done_)
            ~kind_of:(fun _ -> 0)
            ()
        in
        for _ = 1 to 64 do
          Machine.spawn (fun () ->
              for _ = 1 to 3 do
                Funnel.perform f { amount = 1; done_ = false }
              done)
        done;
        Machine.spawn (fun () ->
            Machine.work 1_000_000_000;
            stats := Some (Funnel.stats f)))
  in
  match !stats with
  | None -> Alcotest.fail "stats never read"
  | Some s ->
    check "some combining happened" true (stat "combines" s > 0);
    check "combining reduced lock acquisitions" true (stat "batches" s < 64 * 3);
    check_int "conservation: batches + combines = requests" (64 * 3)
      (stat "batches" s + stat "combines" s)

let test_funnel_kinds_do_not_mix () =
  (* Two kinds; the apply callback asserts batch homogeneity. *)
  let homogeneous = ref true in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let f =
          Funnel.create ~collision_window:100
            ~apply:(fun batch ->
              (match batch with
              | [] -> ()
              | first :: _ ->
                if List.exists (fun r -> r.amount mod 2 <> first.amount mod 2) batch
                then homogeneous := false);
              List.iter (fun r -> r.done_ <- true) batch)
            ~is_done:(fun r -> r.done_)
            ~kind_of:(fun r -> r.amount mod 2)
            ()
        in
        for p = 1 to 60 do
          Machine.spawn (fun () -> Funnel.perform f { amount = p; done_ = false })
        done)
  in
  check "batches homogeneous" true !homogeneous

let test_funnel_degenerate_configs () =
  (* width-1 layers, zero collision window, and a full-walk tolerance must
     all still complete every request *)
  let completed = ref 0 in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let f =
          Funnel.create ~layer_widths:[ 1; 1 ] ~collision_window:0
            ~miss_tolerance:10
            ~apply:(fun batch ->
              List.iter
                (fun r ->
                  incr completed;
                  r.done_ <- true)
                batch)
            ~is_done:(fun r -> r.done_)
            ~kind_of:(fun _ -> 0)
            ()
        in
        for _ = 1 to 20 do
          Machine.spawn (fun () -> Funnel.perform f { amount = 1; done_ = false })
        done)
  in
  check_int "all complete" 20 !completed

let test_funnel_rejects_bad_config () =
  let reject label widths =
    check label true
      (try
         ignore
           (Machine.run (fun () ->
                ignore
                  ((Funnel.create ~layer_widths:widths
                      ~apply:(fun (_ : bump list) -> ())
                      ~is_done:(fun r -> r.done_)
                      ~kind_of:(fun _ -> 0)
                      ()
                     : bump Funnel.t))));
         false
       with Invalid_argument _ -> true)
  in
  reject "no layers" [];
  reject "empty layer" [ 4; 0 ]

let test_funnel_sequential_reuse () =
  (* one processor performing many operations back to back leaves stale
     tokens in cells; later operations must not be corrupted by them *)
  let total = ref 0 in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let f =
          Funnel.create
            ~apply:(fun batch ->
              List.iter
                (fun r ->
                  total := !total + r.amount;
                  r.done_ <- true)
                batch)
            ~is_done:(fun r -> r.done_)
            ~kind_of:(fun _ -> 0)
            ()
        in
        for i = 1 to 25 do
          Funnel.perform f { amount = i; done_ = false }
        done)
  in
  check_int "all applied exactly once" (25 * 26 / 2) !total

(* --- FunnelList ----------------------------------------------------------- *)

let test_funnel_list_sequential () =
  in_sim (fun () ->
      let q = FL.create () in
      List.iter (fun k -> FL.insert q k (10 * k)) [ 4; 2; 8; 6 ];
      check_int "size" 4 (FL.size q);
      ok_or_fail (FL.check_invariants q);
      check "min" true (FL.delete_min q = Some (2, 20));
      check "next" true (FL.delete_min q = Some (4, 40));
      FL.insert q 1 10;
      check "new min" true (FL.delete_min q = Some (1, 10));
      check "six" true (FL.delete_min q = Some (6, 60));
      check "eight" true (FL.delete_min q = Some (8, 80));
      check "empty" true (FL.delete_min q = None))

(* qcheck: arbitrary op sequences against the sequential sorted list from
   lib/pqueue (the FunnelList's list without the funnel).  Keys compare
   only; the remaining contents must agree as key multisets. *)
module Model = Repro_pqueue.Sorted_list

let qcheck_funnel_list_matches_model =
  let gen = QCheck.(list_of_size Gen.(int_range 0 200) (int_range (-1) 60)) in
  QCheck.Test.make ~count:60 ~name:"funnel-list matches sequential model" gen (fun ops ->
      in_sim (fun () ->
          let q = FL.create () in
          let m = Model.create () in
          List.iteri
            (fun i op ->
              if op < 0 then begin
                let got = Option.map fst (FL.delete_min q) in
                let want = Option.map fst (Model.delete_min m) in
                if got <> want then QCheck.Test.fail_reportf "delete-min mismatch at op %d" i
              end
              else begin
                FL.insert q op i;
                Model.insert m op i
              end)
            ops;
          ok_or_fail (FL.check_invariants q);
          let rec drain acc pop = match pop () with None -> List.rev acc | Some (k, _) -> drain (k :: acc) pop in
          drain [] (fun () -> FL.delete_min q) = drain [] (fun () -> Model.delete_min m)))

let test_funnel_list_duplicates () =
  in_sim (fun () ->
      let q = FL.create () in
      FL.insert q 3 1;
      FL.insert q 3 2;
      check_int "both kept" 2 (FL.size q);
      let a = FL.delete_min q and b = FL.delete_min q in
      check "both key 3" true
        (match (a, b) with Some (3, _), Some (3, _) -> true | _ -> false))

let test_funnel_list_stress () =
  let procs = 24 and ops = 30 in
  let key_range = 100 in
  let seed = 91L in
  let events = Array.make procs [] in
  let drained = ref [] in
  let initial = ref [] in
  let invariants = ref (Ok ()) in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = FL.create () in
        let stride = (procs * ops) + 100 in
        let root_rng = Rng.of_seed seed in
        for i = 0 to 9 do
          let key = (Rng.int root_rng key_range * stride) + (procs * ops) + i in
          let id = 900_000_000 + i in
          FL.insert q key id;
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
                  FL.insert q key id;
                  let responded = Machine.get_time () in
                  events.(p) <-
                    { Oracle.proc = p; op = Oracle.Insert { key; id }; invoked; responded }
                    :: events.(p)
                end
                else begin
                  let invoked = Machine.get_time () in
                  let result = FL.delete_min q in
                  let responded = Machine.get_time () in
                  events.(p) <-
                    { Oracle.proc = p; op = Oracle.Delete_min { result }; invoked; responded }
                    :: events.(p)
                end
              done)
        done;
        Machine.spawn (fun () ->
            Machine.work 2_000_000_000;
            invariants := FL.check_invariants q;
            let rec drain () =
              match FL.delete_min q with
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

(* --- bin queue -------------------------------------------------------------- *)

let test_bin_queue_sequential () =
  in_sim (fun () ->
      let q = Bins.create ~range:16 () in
      check "empty" true (Bins.delete_min q = None);
      List.iter (fun p -> Bins.insert q p (10 * p)) [ 9; 3; 12; 3 ];
      check_int "size" 4 (Bins.size q);
      ok_or_fail (Bins.check_invariants q);
      check "min bin" true
        (match Bins.delete_min q with Some (3, _) -> true | _ -> false);
      check "same bin again" true
        (match Bins.delete_min q with Some (3, _) -> true | _ -> false);
      check "then 9" true (Bins.delete_min q = Some (9, 90));
      check "then 12" true (Bins.delete_min q = Some (12, 120));
      check "empty again" true (Bins.delete_min q = None);
      ok_or_fail (Bins.check_invariants q))

let test_bin_queue_rejects_out_of_range () =
  in_sim (fun () ->
      let q = Bins.create ~range:4 () in
      Alcotest.check_raises "too big"
        (Invalid_argument "Bin_queue.insert: priority out of range") (fun () ->
          Bins.insert q 4 0);
      Alcotest.check_raises "negative"
        (Invalid_argument "Bin_queue.insert: priority out of range") (fun () ->
          Bins.insert q (-1) 0))

let test_bin_queue_hint_monotone_min () =
  in_sim (fun () ->
      let q = Bins.create ~range:64 () in
      (* lower the hint repeatedly and ensure scans never miss a low item *)
      Bins.insert q 50 0;
      ignore (Bins.delete_min q);
      Bins.insert q 10 1;
      Bins.insert q 40 2;
      check "low item found after hint went high" true
        (Bins.delete_min q = Some (10, 1));
      ok_or_fail (Bins.check_invariants q))

let test_bin_queue_concurrent_conservation () =
  let drained = ref [] in
  let invariants = ref (Ok ()) in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = Bins.create ~range:32 () in
        for p = 0 to 15 do
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.of_int (600 + p)) in
              for i = 0 to 19 do
                if i land 1 = 0 then Bins.insert q (Rng.int rng 32) ((p * 100) + i)
                else ignore (Bins.delete_min q)
              done)
        done;
        Machine.spawn (fun () ->
            Machine.work 100_000_000;
            invariants := Bins.check_invariants q;
            let rec drain () =
              match Bins.delete_min q with
              | None -> ()
              | Some (p, _) ->
                drained := p :: !drained;
                drain ()
            in
            drain ()))
  in
  ok_or_fail !invariants;
  (* drain on a quiescent queue must be ascending *)
  let rec ascending = function
    | a :: (b :: _ as rest) -> a <= b && ascending rest
    | [] | [ _ ] -> true
  in
  check "quiescent drain ascending" true (ascending (List.rev !drained))

(* --- native domains ----------------------------------------------------------- *)

let test_funnel_list_native_stress () =
  let q = FL_native.create () in
  let procs = 3 and ops = 200 in
  let inserted = Atomic.make 0 and removed = Atomic.make 0 in
  Native_rt.run_processors procs (fun p ->
      let rng = Rng.of_seed (Int64.of_int (880 + p)) in
      for i = 0 to ops - 1 do
        if Rng.bool rng then begin
          FL_native.insert q ((p * 1000) + i) i;
          Atomic.incr inserted
        end
        else
          match FL_native.delete_min q with
          | Some _ -> Atomic.incr removed
          | None -> ()
      done);
  (match FL_native.check_invariants q with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_int "conservation" (Atomic.get inserted)
    (Atomic.get removed + FL_native.size q)

let test_bin_queue_native_stress () =
  let q = Bins_native.create ~range:64 () in
  let procs = 4 and ops = 500 in
  let inserted = Atomic.make 0 and removed = Atomic.make 0 in
  Native_rt.run_processors procs (fun p ->
      let rng = Rng.of_seed (Int64.of_int (990 + p)) in
      for _ = 0 to ops - 1 do
        if Rng.bool rng then begin
          Bins_native.insert q (Rng.int rng 64) p;
          Atomic.incr inserted
        end
        else
          match Bins_native.delete_min q with
          | Some _ -> Atomic.incr removed
          | None -> ()
      done);
  (match Bins_native.check_invariants q with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_int "conservation" (Atomic.get inserted)
    (Atomic.get removed + Bins_native.size q)

let () =
  Alcotest.run "funnel"
    [
      ( "combining-funnel",
        [
          Alcotest.test_case "applies everything" `Quick test_funnel_applies_everything;
          Alcotest.test_case "combines under load" `Quick test_funnel_combines_under_load;
          Alcotest.test_case "kinds do not mix" `Quick test_funnel_kinds_do_not_mix;
          Alcotest.test_case "degenerate configs" `Quick test_funnel_degenerate_configs;
          Alcotest.test_case "rejects bad config" `Quick test_funnel_rejects_bad_config;
          Alcotest.test_case "sequential reuse" `Quick test_funnel_sequential_reuse;
        ] );
      ( "funnel-list",
        [
          Alcotest.test_case "sequential" `Quick test_funnel_list_sequential;
          Alcotest.test_case "duplicates" `Quick test_funnel_list_duplicates;
          QCheck_alcotest.to_alcotest qcheck_funnel_list_matches_model;
          Alcotest.test_case "stress with oracle" `Quick test_funnel_list_stress;
        ] );
      ( "native",
        [
          Alcotest.test_case "funnel-list 3-domain stress" `Quick
            test_funnel_list_native_stress;
          Alcotest.test_case "bin-queue 4-domain stress" `Quick
            test_bin_queue_native_stress;
        ] );
      ( "bin-queue",
        [
          Alcotest.test_case "sequential" `Quick test_bin_queue_sequential;
          Alcotest.test_case "range check" `Quick test_bin_queue_rejects_out_of_range;
          Alcotest.test_case "hint never hides items" `Quick test_bin_queue_hint_monotone_min;
          Alcotest.test_case "concurrent conservation" `Quick
            test_bin_queue_concurrent_conservation;
        ] );
    ]
