(* Tests for the relaxed MultiQueue (lib/multiqueue) on the simulator
   backend: no element is ever lost or duplicated under concurrency, the
   one-processor queue (2 shards, both compared: choice = shards)
   degenerates to an exact queue, emptiness is definitive at quiescence,
   and the rank error of the 2-choice configuration stays within its
   expected O(shards) envelope. *)

module Machine = Repro_sim.Machine
module Rng = Repro_util.Rng
module MQ = Repro_multiqueue.Multiqueue.Make (Repro_sim.Sim_runtime)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let stat name stats = int_of_float (List.assoc name stats)

(* 8 virtual processors insert uniquely-tagged values and delete
   concurrently; afterwards a post-mortem processor drains the queue.
   Every inserted value must come back exactly once (from a measured
   delete or the drain): the try-lock redirections and the cached-top
   sampling must neither lose nor duplicate elements. *)
let test_no_lost_or_duplicated_items () =
  let inserted = ref [] and deleted = ref [] and drained = ref [] in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = MQ.create ~procs:8 ~seed:5L () in
        for p = 0 to 7 do
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.of_int (100 + p)) in
              for i = 0 to 199 do
                if Rng.bernoulli rng 0.6 then begin
                  let v = (p * 1_000_000) + i in
                  MQ.insert q (Rng.int rng 4096) v;
                  inserted := v :: !inserted
                end
                else
                  match MQ.delete_min q with
                  | None -> ()
                  | Some (_, v) -> deleted := v :: !deleted
              done)
        done;
        (* Post-mortem drain, far past quiescence. *)
        Machine.spawn (fun () ->
            Machine.work (1 lsl 50);
            let rec drain () =
              match MQ.delete_min q with
              | None -> ()
              | Some (_, v) ->
                drained := v :: !drained;
                drain ()
            in
            drain ()))
  in
  let sort = List.sort compare in
  check "some concurrent deletes happened" true (!deleted <> []);
  Alcotest.(check (list int))
    "multiset conserved" (sort !inserted)
    (sort (!deleted @ !drained))

(* At [procs = 1] the 2 sampled shards are all the shards (choice =
   shards), so every cached top is compared and a sequential execution
   must return keys in exactly sorted order (rank error zero). *)
let test_choice_equals_shards_is_exact () =
  let out = ref [] in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = MQ.create ~procs:1 ~seed:9L () in
        let rng = Rng.of_seed 11L in
        for i = 0 to 199 do
          MQ.insert q (Rng.int rng 100_000) i
        done;
        let rec drain () =
          match MQ.delete_min q with
          | None -> ()
          | Some (k, _) ->
            out := k :: !out;
            drain ()
        in
        drain ())
  in
  let keys = List.rev !out in
  check_int "all 200 drained" 200 (List.length keys);
  check "drained in sorted order" true (keys = List.sort compare keys)

(* Sequential 2-choice drain over the 8 shards of [procs = 4]: the mean
   rank error (number of live keys strictly smaller than the popped one)
   must stay within a generous O(shards) envelope, and the reference
   multiset must empty out exactly. *)
let test_rank_error_within_envelope () =
  let ranks = ref [] and leftover = ref (-1) in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = MQ.create ~procs:4 ~seed:3L () in
        let live = ref [] in
        let rng = Rng.of_seed 17L in
        for i = 0 to 999 do
          let k = Rng.int rng 1_000_000 in
          MQ.insert q k i;
          live := k :: !live
        done;
        let rec remove_one k = function
          | [] -> []
          | x :: tl -> if x = k then tl else x :: remove_one k tl
        in
        let rec drain () =
          match MQ.delete_min q with
          | None -> ()
          | Some (k, _) ->
            let rank = List.length (List.filter (fun x -> x < k) !live) in
            ranks := float_of_int rank :: !ranks;
            live := remove_one k !live;
            drain ()
        in
        drain ();
        leftover := List.length !live)
  in
  check_int "reference multiset drained" 0 !leftover;
  check_int "all 1000 popped" 1000 (List.length !ranks);
  let mean = List.fold_left ( +. ) 0.0 !ranks /. 1000.0 in
  check "mean rank error within O(shards) envelope" true (mean < 40.0);
  check "rank error nonnegative" true (List.for_all (fun r -> r >= 0.0) !ranks)

let test_empty_is_definitive_and_queue_reusable () =
  let r1 = ref (Some (0, 0)) and r2 = ref None and r3 = ref (Some (0, 0)) in
  let len = ref (-1) and st = ref None in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = MQ.create ~procs:1 ~seed:1L () in
        r1 := MQ.delete_min q;
        MQ.insert q 42 7;
        r2 := MQ.delete_min q;
        r3 := MQ.delete_min q;
        len := MQ.length q;
        st := Some (MQ.stats q))
  in
  check "fresh queue is empty" true (!r1 = None);
  check "returns the one inserted element" true (!r2 = Some (42, 7));
  check "empty again after the pop" true (!r3 = None);
  check_int "length 0 at quiescence" 0 !len;
  match !st with
  | None -> Alcotest.fail "no stats captured"
  | Some s ->
    check "the two empty deletes fell back to full sweeps" true (stat "full_sweeps" s >= 2);
    check_int "no lock failures single-threaded" 0 (stat "lock_failures" s)

(* --- qcheck properties --------------------------------------------------- *)

(* At [procs = 1] choice = shards: every cached top is compared, so any
   random single-processor op sequence must match a duplicate-keeping
   sorted-list model key-for-key (values of tied keys may associate
   differently). *)
let qcheck_exact_config_matches_model =
  let module Model = Repro_pqueue.Sorted_list in
  let gen = QCheck.(list_of_size Gen.(int_range 0 200) (int_range (-1) 60)) in
  QCheck.Test.make ~count:60 ~name:"choice = shards matches heap model" gen
    (fun ops ->
      let ok = ref false in
      let (_ : Machine.report) =
        Machine.run (fun () ->
            let q = MQ.create ~procs:1 ~seed:9L () in
            let m = Model.create () in
            List.iteri
              (fun i op ->
                if op < 0 then begin
                  let got = Option.map fst (MQ.delete_min q) in
                  let want = Option.map fst (Model.delete_min m) in
                  if got <> want then
                    QCheck.Test.fail_reportf "delete-min key mismatch at op %d" i
                end
                else begin
                  MQ.insert q op i;
                  Model.insert m op i
                end)
              ops;
            let rec drain pop acc =
              match pop () with None -> List.rev acc | Some (k, _) -> drain pop (k :: acc)
            in
            ok :=
              drain (fun () -> MQ.delete_min q) []
              = drain (fun () -> Model.delete_min m) [])
      in
      !ok)

(* Any random key batch drained under the 2-choice configuration must be
   conserved exactly (every key back exactly once), and — once there are
   enough pops for the mean to be meaningful — the mean rank error must
   stay inside the O(shards) envelope the unit test above pins for one
   fixed seed. *)
let qcheck_rank_envelope =
  let gen = QCheck.(list_of_size Gen.(int_range 0 300) (int_bound 1_000_000)) in
  QCheck.Test.make ~count:40 ~name:"2-choice conservation and rank envelope" gen
    (fun keys ->
      let ok = ref false in
      let (_ : Machine.report) =
        Machine.run (fun () ->
            let q = MQ.create ~procs:4 ~seed:3L () in
            List.iteri (fun i k -> MQ.insert q k i) keys;
            let live = ref keys in
            let rec remove_one k = function
              | [] -> QCheck.Test.fail_reportf "popped key %d was not live" k
              | x :: tl -> if x = k then tl else x :: remove_one k tl
            in
            let popped = ref 0 and rank_sum = ref 0 in
            let rec drain () =
              match MQ.delete_min q with
              | None -> ()
              | Some (k, _) ->
                incr popped;
                rank_sum :=
                  !rank_sum + List.length (List.filter (fun x -> x < k) !live);
                live := remove_one k !live;
                drain ()
            in
            drain ();
            if !live <> [] then
              QCheck.Test.fail_reportf "%d keys never drained" (List.length !live);
            let mean_ok =
              !popped < 30
              || float_of_int !rank_sum /. float_of_int !popped < 40.0
            in
            ok := !popped = List.length keys && mean_ok)
      in
      !ok)

let test_shard_sizing () =
  let shards = ref 0 and rejected = ref false in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        shards := stat "shards" (MQ.stats (MQ.create ~procs:16 ()));
        match MQ.create ~procs:0 () with
        | (_ : int MQ.t) -> ()
        | exception Invalid_argument _ -> rejected := true)
  in
  check_int "2 shards per processor" 32 !shards;
  check "procs < 1 rejected" true !rejected

let () =
  Alcotest.run "multiqueue"
    [
      ( "semantics",
        [
          Alcotest.test_case "no lost or duplicated items" `Quick
            test_no_lost_or_duplicated_items;
          Alcotest.test_case "choice = shards is exact" `Quick
            test_choice_equals_shards_is_exact;
          Alcotest.test_case "rank error within envelope" `Quick
            test_rank_error_within_envelope;
          Alcotest.test_case "emptiness definitive, queue reusable" `Quick
            test_empty_is_definitive_and_queue_reusable;
          Alcotest.test_case "shard sizing" `Quick test_shard_sizing;
          QCheck_alcotest.to_alcotest qcheck_exact_config_matches_model;
          QCheck_alcotest.to_alcotest qcheck_rank_envelope;
        ] );
    ]
