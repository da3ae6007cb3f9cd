(* Tests for the lock-free SkipQueue backend: sequential multiset
   semantics against a qcheck model, marked-node (tombstone) traversal and
   the batched-restructure threshold, instance-accounting conservation on
   duplicate-heavy simulated workloads, the exact accesses of uncontended
   operations, trace-fingerprint determinism, and a native-domain
   stress. *)

module Machine = Repro_sim.Machine
module Sim_rt = Repro_sim.Sim_runtime
module Native_rt = Repro_runtime.Native_runtime
module Bounded = Repro_bounded.Bounded_queue.Make (Sim_rt)
module Rng = Repro_util.Rng
module LF = Repro_skipqueue.Skipqueue_lf.Make (Sim_rt) (Repro_pqueue.Key.Int)
module LF_native = Repro_skipqueue.Skipqueue_lf.Make (Native_rt) (Repro_pqueue.Key.Int)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ok_or_fail = function Ok () -> () | Error msg -> Alcotest.fail msg

(* Access kinds, for pinning an operation's trace. *)
let kind =
  let open Repro_sim.Memory_model in
  Alcotest.testable
    (fun ppf k ->
      Format.pp_print_string ppf (match k with Read -> "read" | Write -> "write" | Swap -> "swap"))
    ( = )

let in_sim f =
  let result = ref None in
  let (_ : Machine.report) = Machine.run (fun () -> result := Some (f ())) in
  Option.get !result

(* --- sequential behaviour ---------------------------------------------- *)

let test_sequential_drain () =
  in_sim (fun () ->
      let q = LF.create () in
      check "empty" true (LF.delete_min q = None);
      List.iter (fun k -> LF.insert q k (10 * k)) [ 5; 1; 9; 3; 7 ];
      let order = ref [] in
      let rec drain () =
        match LF.delete_min q with
        | None -> ()
        | Some (k, v) ->
          check_int "value follows key" (10 * k) v;
          order := k :: !order;
          drain ()
      in
      drain ();
      Alcotest.(check (list int)) "ascending drain" [ 1; 3; 5; 7; 9 ] (List.rev !order);
      check "empty again" true (LF.delete_min q = None);
      ok_or_fail (LF.check_invariants q))

let test_duplicates_kept () =
  (* Multiset semantics: duplicate keys are all kept, and because an
     insert splices in front of existing equal keys, equal keys come back
     newest-first. *)
  in_sim (fun () ->
      let q = LF.create () in
      LF.insert q 4 1;
      LF.insert q 4 2;
      LF.insert q 2 0;
      LF.insert q 4 3;
      check_int "size keeps duplicates" 4 (LF.size q);
      check "smaller key first" true (LF.delete_min q = Some (2, 0));
      check "equal keys newest-first (3rd insert)" true (LF.delete_min q = Some (4, 3));
      check "equal keys newest-first (2nd insert)" true (LF.delete_min q = Some (4, 2));
      check "equal keys newest-first (1st insert)" true (LF.delete_min q = Some (4, 1));
      check "drained" true (LF.delete_min q = None))

(* Every refusal names its parameter, under the one constructor's prefix. *)
let test_create_refusals () =
  let refuses msg create =
    Alcotest.check_raises msg (Invalid_argument ("Skipqueue_lf.create: " ^ msg)) (fun () ->
        ignore (create () : int LF.t))
  in
  refuses "p outside (0, 1)" (LF.create ~p:0.0);
  refuses "p outside (0, 1)" (LF.create ~p:1.0);
  refuses "max_level < 1" (LF.create ~max_level:0);
  refuses "restructure_threshold < 1" (LF.create ~restructure_threshold:0)

(* --- qcheck multiset model --------------------------------------------- *)

(* Random single-processor op sequences against a multiset model: a map
   from key to the stack of values inserted under it, newest first (the
   structure splices a new node in front of existing equal keys). *)
let qcheck_matches_multiset_model =
  let module M = Map.Make (Int) in
  let gen = QCheck.(list_of_size Gen.(int_range 0 200) (int_range (-1) 30)) in
  QCheck.Test.make ~count:60 ~name:"lock-free SkipQueue matches multiset model" gen
    (fun ops ->
      let ok = ref false in
      let (_ : Machine.report) =
        Machine.run (fun () ->
            let q = LF.create ~restructure_threshold:4 () in
            let model = ref M.empty in
            List.iteri
              (fun i op ->
                if op < 0 then begin
                  let want =
                    match M.min_binding_opt !model with
                    | None -> None
                    | Some (_, []) -> assert false
                    | Some (k, v :: rest) ->
                      model :=
                        (if rest = [] then M.remove k !model else M.add k rest !model);
                      Some (k, v)
                  in
                  if LF.delete_min q <> want then
                    QCheck.Test.fail_reportf "delete-min mismatch at op %d" i
                end
                else begin
                  LF.insert q op i;
                  model :=
                    M.update op
                      (function None -> Some [ i ] | Some vs -> Some (i :: vs))
                      !model
                end)
              ops;
            ok_or_fail (LF.check_invariants q);
            let live = List.sort compare (LF.to_list q) in
            let want =
              M.bindings !model
              |> List.concat_map (fun (k, vs) -> List.map (fun v -> (k, v)) vs)
              |> List.sort compare
            in
            ok := live = want)
      in
      !ok)

(* --- marked-node traversal and the restructure threshold ---------------- *)

let test_tombstones_persist_below_threshold () =
  in_sim (fun () ->
      let q = LF.create ~restructure_threshold:1000 () in
      for i = 0 to 19 do
        LF.insert q i i
      done;
      (* Logical deletion only: the threshold is never reached, so the
         claimed nodes stay physically linked as a tombstone prefix. *)
      for i = 0 to 7 do
        check "drains ascending" true (LF.delete_min q = Some (i, i))
      done;
      check_int "tombstones still linked" 8 (LF.marked_prefix_len q);
      check_int "no restructure fired" 0 (LF.stats q).LF.restructures;
      check "peek skips the tombstones" true (LF.peek_min q = Some (8, 8));
      check_int "size counts live nodes only" 12 (LF.size q);
      ok_or_fail (LF.check_invariants q);
      (* Live-order insertion: a key smaller than every live node lands at
         the very front, in front of the (larger-keyed) tombstone run. *)
      LF.insert q 3 333;
      check_int "front insert re-roots the prefix" 0 (LF.marked_prefix_len q);
      check "new min visible in front of tombstones" true
        (LF.delete_min q = Some (3, 333));
      ok_or_fail (LF.check_invariants q))

let test_restructure_threshold_honored () =
  in_sim (fun () ->
      let q = LF.create ~restructure_threshold:4 () in
      for i = 0 to 31 do
        LF.insert q i i
      done;
      for i = 0 to 31 do
        check "drains ascending" true (LF.delete_min q = Some (i, i));
        check "prefix stays under the threshold" true (LF.marked_prefix_len q <= 4)
      done;
      let s = LF.stats q in
      check "restructures fired" true (s.LF.restructures > 0);
      check_int "every node either unlinked or still in the prefix" 32
        (s.LF.unlinked + LF.marked_prefix_len q);
      ok_or_fail (LF.check_invariants q))

(* --- a lost bottom CAS resumes from its predecessor --------------------- *)

(* Two processors start front inserts (keys 5 and 3, below the prefilled
   10) at the same cycle, so both read the head's bottom link before
   either CASes it: the insert of 5 wins and the insert of 3 loses.  The
   loser's retry, traced between its failed CAS and its next one, must
   re-read only its predecessor's (the head's) bottom link and walk on
   from there: that read, the winner's link and key, the new node's link
   write and the CAS on the head.  A retry that searched again from the
   top would first read all [max_level - 1] upper head links.  The head's
   cells are registered consecutively (bottom link first), so its upper
   links are the [max_level - 1] locations after the bottom one, which an
   empty queue's [peek_min] reads alone.  A tiny [p] keeps every node at
   level 1, so every Swap in the trace is a bottom-level CAS. *)
let test_lost_cas_resumes_from_predecessor () =
  let open Repro_sim.Memory_model in
  let max_level = 20 in
  let head_bottom = ref (-1) and measuring = ref false in
  let accesses = Hashtbl.create 4 in
  let tracer = function
    | Repro_sim.Trace.Accessed { proc; location; kind; _ } ->
      if !head_bottom < 0 then head_bottom := location
      else if !measuring then
        Hashtbl.replace accesses proc
          ((location, kind) :: Option.value ~default:[] (Hashtbl.find_opt accesses proc))
    | _ -> ()
  in
  let (_ : Machine.report) =
    Machine.run ~tracer (fun () ->
        let q = LF.create ~p:0.001 ~max_level ~seed:5L () in
        check "empty" true (LF.peek_min q = None);
        LF.insert q 10 10;
        measuring := true;
        List.iter (fun k -> Machine.spawn (fun () -> LF.insert q k k)) [ 5; 3 ];
        Machine.spawn (fun () ->
            Machine.work 1_000_000;
            Alcotest.(check (list (pair int int)))
              "both elements linked" [ (3, 3); (5, 5); (10, 10) ] (LF.to_list q);
            ok_or_fail (LF.check_invariants q)))
  in
  let head = !head_bottom in
  let is_upper_head loc = loc > head && loc < head + max_level in
  (* A processor's accesses after its first CAS, through its next one. *)
  let retry trace =
    let rec after_first_swap = function
      | [] -> []
      | (_, Swap) :: rest -> rest
      | _ :: rest -> after_first_swap rest
    in
    let rec upto_swap = function
      | [] -> None
      | ((_, Swap) as a) :: _ -> Some [ a ]
      | a :: rest -> Option.map (List.cons a) (upto_swap rest)
    in
    upto_swap (after_first_swap (List.rev trace))
  in
  let retries = Hashtbl.fold (fun _ trace acc -> Option.to_list (retry trace) @ acc) accesses [] in
  match retries with
  | [ retry ] ->
    check "the retry reads no upper head link" false
      (List.exists (fun (loc, _) -> is_upper_head loc) retry);
    Alcotest.(check (list kind))
      "one bottom walk: the head's link, the winner's link and key, then link and CAS"
      [ Read; Read; Read; Write; Swap ] (List.map snd retry);
    Alcotest.(check (list int))
      "the walk starts at, and the CAS hits, the head's bottom link" [ head; head ]
      [ fst (List.hd retry); fst (List.nth retry 4) ]
  | l -> Alcotest.failf "%d inserts retried their bottom CAS, expected 1" (List.length l)

(* --- the accesses of uncontended operations ------------------------------ *)

(* An operation touches only the structure: an uncontended insert into an
   empty one-level queue reads the head's bottom link, writes the new
   node's link and CASes the head's; an uncontended delete-min on the
   resulting one-element queue reads the head's link and the victim's,
   CASes the mark in and reads the victim's key and value.  No processor
   slot is written on entry or exit, and nothing else is charged. *)
let test_uncontended_accesses () =
  let open Repro_sim.Memory_model in
  let kinds = ref [] in
  let tracer = function
    | Repro_sim.Trace.Accessed { kind; _ } -> kinds := kind :: !kinds
    | _ -> ()
  in
  let measure f =
    kinds := [];
    f ();
    List.rev !kinds
  in
  let insert = ref [] and delete = ref [] in
  let (_ : Machine.report) =
    Machine.run ~tracer (fun () ->
        let q = LF.create ~max_level:1 () in
        insert := measure (fun () -> LF.insert q 5 50);
        delete :=
          measure (fun () -> check "returns the element" true (LF.delete_min q = Some (5, 50))))
  in
  Alcotest.(check (list kind)) "insert: head link, new link, CAS" [ Read; Write; Swap ] !insert;
  Alcotest.(check (list kind))
    "delete-min: head link, victim link, mark CAS, key, value"
    [ Read; Read; Swap; Read; Read ] !delete

(* --- duplicate-heavy conservation under simulated concurrency ----------- *)

(* Unique instance ids ride on heavily colliding keys; every id must be
   conserved exactly — {inserted} = {deleted} ∪ {drained} — which is the
   accounting the multiset semantics owes (the locked SkipQueue dedups, so
   its stress uses unique keys; here collisions are the point). *)
let stress_conservation ~procs ~ops ~key_range ~threshold ~seed () =
  let module S = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let inserted = Array.make procs [] in
  let deleted = Array.make procs [] in
  let drained = ref [] in
  let invariants = ref (Ok ()) in
  let quiescent = ref false in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = LF.create ~seed ~restructure_threshold:threshold () in
        let done_count = ref 0 in
        for p = 0 to procs - 1 do
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.add seed (Int64.of_int (p + 1))) in
              for i = 0 to ops - 1 do
                let id = (p * 1_000_000) + i in
                if Rng.int rng 5 < 3 then begin
                  let key = Rng.int rng key_range in
                  inserted.(p) <- (key, id) :: inserted.(p);
                  LF.insert q key id
                end
                else
                  match LF.delete_min q with
                  | Some kv -> deleted.(p) <- kv :: deleted.(p)
                  | None -> ()
              done;
              incr done_count)
        done;
        Machine.spawn (fun () ->
            Machine.work 2_000_000_000;
            quiescent := !done_count = procs;
            invariants := LF.check_invariants q;
            let rec drain () =
              match LF.delete_min q with
              | None -> ()
              | Some kv ->
                drained := kv :: !drained;
                drain ()
            in
            drain ()))
  in
  check "workers quiesced before the drain" true !quiescent;
  ok_or_fail !invariants;
  let all_in = S.of_list (Array.to_list inserted |> List.concat) in
  let all_out =
    S.union (S.of_list (Array.to_list deleted |> List.concat)) (S.of_list !drained)
  in
  if not (S.equal all_in all_out) then
    Alcotest.failf "conservation broken: %d missing, %d phantom (of %d inserted)"
      (S.cardinal (S.diff all_in all_out))
      (S.cardinal (S.diff all_out all_in))
      (S.cardinal all_in)

let test_stress_duplicates () =
  stress_conservation ~procs:10 ~ops:60 ~key_range:8 ~threshold:4 ~seed:71L ()

let test_stress_eager_restructure () =
  (* Threshold 1: every delete-min walk is restructure-eligible, so the
     unlink path races everything constantly. *)
  stress_conservation ~procs:8 ~ops:50 ~key_range:5 ~threshold:1 ~seed:72L ()

(* --- the tombstone prefix stays bounded ----------------------------------- *)

(* Claimed nodes still physically linked: every claim marked one node, and
   every node a restructure unlinked had been claimed.  [claims] counts
   the delete-mins that returned an element. *)
let linked_tombstones q ~claims = claims - (LF.stats q).LF.unlinked

let test_alternating_prefix_bounded () =
  (* One processor alternating insert / delete-min: every insert walks
     from the head over the run its predecessors' claims left there.  If
     the insert linked in front of that run without collecting it, the
     next claim would hop nothing and the run would never be unlinked. *)
  in_sim (fun () ->
      let threshold = 8 in
      let q = LF.create ~restructure_threshold:threshold () in
      for i = 0 to 499 do
        LF.insert q i i;
        check "returns the element just inserted" true (LF.delete_min q = Some (i, i));
        if LF.marked_prefix_len q > threshold then
          Alcotest.failf "prefix of %d tombstones after %d pairs (threshold %d)"
            (LF.marked_prefix_len q) (i + 1) threshold
      done;
      check "every tombstone is in the prefix" true
        (linked_tombstones q ~claims:500 = LF.marked_prefix_len q);
      let s = LF.stats q in
      check "inserts restructured" true (s.LF.restructures > 0);
      check "insert hops are counted" true
        (s.LF.insert_marked_hops > 0 && s.LF.insert_marked_hops <= s.LF.marked_hops);
      ok_or_fail (LF.check_invariants q))

(* The EDF scheduler's shape: producers refill a bounded façade in bursts,
   consumers drain it.  The façade parks a consumer on an empty queue
   instead of letting its delete-min walk the tombstones to the tail (an
   empty delete-min restructures on its own), and it serializes each side,
   so every refill links at the head in front of the last drain's
   tombstones.  At the end, the last insert had found fewer than
   [threshold] tombstones at the head or collected them; at most
   [capacity] elements were live then, so at most that many claims can
   have followed it. *)
let test_drain_refill_bounded () =
  let seed = 73L and producers = 4 and consumers = 2 and items = 480 in
  let threshold = 4 and capacity = 8 in
  let popped = Array.make consumers [] in
  let linked = ref (-1) and quiescent = ref false in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = LF.create ~seed ~restructure_threshold:threshold () in
        let b =
          Bounded.create ~capacity ~name:"b" ~insert:(LF.insert q)
            ~try_delete_min:(fun () -> LF.delete_min q) ()
        in
        let finished = ref 0 in
        for p = 0 to producers - 1 do
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.add seed (Int64.of_int p)) in
              for i = 0 to (items / producers) - 1 do
                let id = (i * producers) + p in
                Bounded.insert_wait b id id;
                (* a pause between bursts lets the consumers drain *)
                if i mod 6 = 5 then Machine.work (2_000 + Rng.int rng 2_000)
              done;
              incr finished)
        done;
        for c = 0 to consumers - 1 do
          Machine.spawn (fun () ->
              for _ = 1 to items / consumers do
                popped.(c) <- fst (Bounded.delete_min_wait b) :: popped.(c)
              done;
              incr finished)
        done;
        Machine.spawn (fun () ->
            Machine.work (1 lsl 40);
            quiescent := !finished = producers + consumers;
            linked := linked_tombstones q ~claims:items;
            ok_or_fail (LF.check_invariants q)))
  in
  check "every processor finished" true !quiescent;
  let all = List.sort compare (List.concat (Array.to_list popped)) in
  check "every element popped exactly once" true (all = List.init items Fun.id);
  if !linked > threshold + capacity then
    Alcotest.failf "%d claimed nodes still linked after the run (threshold %d)" !linked
      threshold

(* --- determinism -------------------------------------------------------- *)

(* The backend must stay a deterministic function of the machine schedule:
   two identical runs produce byte-identical traces.  Any wall-clock,
   address or host-state dependence in the CAS retry loops would diverge
   here. *)
let fingerprint_run () =
  let buf = Buffer.create 4096 in
  let sink e =
    Buffer.add_string buf (Format.asprintf "%a@." Repro_sim.Trace.pp_event e)
  in
  let report =
    Machine.run ~tracer:sink (fun () ->
        let q = LF.create ~seed:7L ~restructure_threshold:3 () in
        for p = 0 to 5 do
          Machine.spawn (fun () ->
              for i = 0 to 19 do
                if (i + p) mod 3 = 0 then ignore (LF.delete_min q)
                else LF.insert q (((i * 5) + p) mod 17) ((p * 100) + i)
              done)
        done)
  in
  (Buffer.contents buf, report)

let test_trace_fingerprint_deterministic () =
  let trace_a, report_a = fingerprint_run () in
  let trace_b, report_b = fingerprint_run () in
  Alcotest.(check string) "byte-identical traces" trace_a trace_b;
  check "identical reports" true (report_a = report_b);
  check "the workload actually traced" true (String.length trace_a > 0)

(* --- native domains ----------------------------------------------------- *)

let test_native_multiset_stress () =
  let procs = 4 and ops = 2_000 in
  let q = LF_native.create ~seed:99L () in
  let inserted = Array.make procs [] in
  let deleted = Array.make procs [] in
  Native_rt.run_processors procs (fun p ->
      let rng = Rng.of_seed (Int64.of_int (1000 + p)) in
      for i = 0 to ops - 1 do
        let id = (p * 1_000_000) + i in
        if Rng.bool rng then begin
          (* small key range on purpose: duplicates everywhere *)
          let key = Rng.int rng 50 in
          inserted.(p) <- (key, id) :: inserted.(p);
          LF_native.insert q key id
        end
        else
          match LF_native.delete_min q with
          | Some kv -> deleted.(p) <- kv :: deleted.(p)
          | None -> ()
      done);
  ok_or_fail (LF_native.check_invariants q);
  let drained = ref [] in
  let rec drain () =
    match LF_native.delete_min q with
    | None -> ()
    | Some kv ->
      drained := kv :: !drained;
      drain ()
  in
  drain ();
  let module S = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let all_in = S.of_list (Array.to_list inserted |> List.concat) in
  let all_out =
    S.union (S.of_list (Array.to_list deleted |> List.concat)) (S.of_list !drained)
  in
  check "no lost or invented elements" true (S.equal all_in all_out)

(* Native processor ids are dense: a domain gives its id back when it
   exits, so any number of domains spawned one after another reuse the
   [Per_proc] slots that hold each processor's level stream and search
   scratch instead of growing them without bound. *)
let test_native_many_sequential_domains () =
  let q = LF_native.create ~seed:7L () in
  for i = 1 to 1100 do
    Native_rt.run_processors 1 (fun _ ->
        LF_native.insert q i i;
        match LF_native.delete_min q with
        | Some (k, _) when k = i -> ()
        | Some (k, _) -> Alcotest.failf "domain %d: delete-min returned %d" i k
        | None -> Alcotest.failf "domain %d: delete-min found nothing" i)
  done;
  ok_or_fail (LF_native.check_invariants q);
  check_int "empty" 0 (LF_native.size q)

let () =
  Alcotest.run "skipqueue-lf"
    [
      ( "sequential",
        [
          Alcotest.test_case "ordered drain" `Quick test_sequential_drain;
          Alcotest.test_case "duplicate keys kept" `Quick test_duplicates_kept;
          Alcotest.test_case "create refuses bad parameters" `Quick test_create_refusals;
          QCheck_alcotest.to_alcotest qcheck_matches_multiset_model;
        ] );
      ( "tombstones",
        [
          Alcotest.test_case "persist below the threshold" `Quick
            test_tombstones_persist_below_threshold;
          Alcotest.test_case "restructure threshold honored" `Quick
            test_restructure_threshold_honored;
          Alcotest.test_case "alternating insert/delete-min keeps the prefix bounded"
            `Quick test_alternating_prefix_bounded;
        ] );
      ( "simulated-concurrency",
        [
          Alcotest.test_case "duplicate-heavy conservation" `Quick
            test_stress_duplicates;
          Alcotest.test_case "eager-restructure conservation" `Quick
            test_stress_eager_restructure;
          Alcotest.test_case "drain/refill stays bounded" `Quick test_drain_refill_bounded;
          Alcotest.test_case "lost bottom CAS resumes from its predecessor" `Quick
            test_lost_cas_resumes_from_predecessor;
          Alcotest.test_case "uncontended operations touch only the structure" `Quick
            test_uncontended_accesses;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "trace fingerprint" `Quick
            test_trace_fingerprint_deterministic;
        ] );
      ( "native",
        [
          Alcotest.test_case "4-domain multiset stress" `Quick test_native_multiset_stress;
          Alcotest.test_case "1100 sequential domains" `Quick
            test_native_many_sequential_domains;
        ] );
    ]
