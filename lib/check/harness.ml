module Machine = Repro_sim.Machine
module QA = Repro_workload.Queue_adapter
module Rng = Repro_util.Rng

type profile = {
  procs : int;
  ops_per_proc : int;
  prefill : int;
  insert_ratio : float;
  key_range : int;
  jitter : int;
}

let default_profile =
  { procs = 6; ops_per_proc = 30; prefill = 16; insert_ratio = 0.5; key_range = 256; jitter = 24 }

(* The SkipQueue family updates in place on duplicate keys, silently
   retiring the overwritten element's id — which id-exact conservation
   (rightly) rejects.  For those implementations the harness makes every
   inserted key unique by appending a host-side counter tag in the low
   bits; raw-key order is preserved, ties are broken by insertion order. *)
let tag_bits = 16

(* [Rng.of_seed] of [seed] mixed with stream [i]; each processor role
   uses its own [mix] constant. *)
let stream seed i mix = Rng.of_seed (Int64.logxor seed (Int64.mul (Int64.of_int i) mix))

exception Drain_overtaken of { seed : int64; drain_start : int; last_response : int }

(* One perturbed execution: [workers hq key] runs on the root processor
   and spawns the workload on [hq], the recorded instance, passing every
   raw priority through [key] (the tag above, when [impl] dedups).  A
   drain processor then empties the queue at quiescence, far in the
   future and unrecorded, and the run's history is returned.

   A jitter can delay a worker past the drain's start.  The drain then
   races live operations: its "drained at quiescence" set is not, and in
   the blocking harness it steals items the consumers' quotas need.  So a
   run whose drain found another processor still runnable, and which
   recorded a response at or after the drain's start, is void whatever
   its outcome, and [Drain_overtaken] is raised instead.  A drain that
   finds every other processor finished or parked (a mutant's stranded
   waiters) starts at quiescence, even if it wakes them. *)
let execute ~who ~jitter ~capacity (impl : QA.impl) seed workers =
  let history = History.create () in
  let drained = ref [] in
  let drain_start = ref max_int in
  let tag = ref 0 in
  let key raw =
    if impl.QA.dedups then begin
      incr tag;
      if !tag >= 1 lsl tag_bits then invalid_arg (who ^ ": too many inserts for key tagging");
      (raw lsl tag_bits) lor !tag
    end
    else raw
  in
  let failure =
    match
      Machine.run ~perturb:{ Machine.sched_seed = seed; jitter } (fun () ->
          let q = impl.QA.create () in
          workers (History.wrap history q) key;
          Machine.spawn (fun () ->
              Machine.work (1 lsl 55);
              if Machine.probe_runnable () > 0 then drain_start := Machine.probe_time ();
              let rec go () =
                match q.QA.try_delete_min () with
                | Some kv ->
                  drained := kv :: !drained;
                  go ()
                | None -> ()
              in
              go ()))
    with
    | _ -> None
    | exception e -> Some e
  in
  let events = History.events history in
  let last_response =
    List.fold_left (fun m (e : History.O.event) -> Int.max m e.History.O.responded) min_int events
  in
  if last_response >= !drain_start then
    raise (Drain_overtaken { seed; drain_start = !drain_start; last_response });
  Option.iter raise failure;
  {
    Checkers.impl = impl.QA.name;
    dedups = impl.QA.dedups;
    spec = impl.QA.spec;
    seed;
    events;
    drained = List.rev !drained;
    capacity;
    spans = History.park_spans history;
  }

let run_one ?(profile = default_profile) (impl : QA.impl) seed =
  if profile.procs < 1 then invalid_arg "Harness.run_one: procs < 1";
  execute ~who:"Harness.run_one" ~jitter:profile.jitter ~capacity:None impl seed
    (fun hq key ->
      (* prefill on the root processor, strictly before any worker *)
      let rng0 = Rng.of_seed (Int64.logxor seed 0x5851F42D4C957F2DL) in
      for i = 0 to profile.prefill - 1 do
        hq.QA.insert (key (Rng.int rng0 profile.key_range)) (900_000_000 + i)
      done;
      for p = 0 to profile.procs - 1 do
        Machine.spawn (fun () ->
            let rng = stream seed (p + 1) 0x9E3779B97F4A7C15L in
            for i = 0 to profile.ops_per_proc - 1 do
              if Rng.int rng 1000 < int_of_float (profile.insert_ratio *. 1000.) then
                hq.QA.insert (key (Rng.int rng profile.key_range)) (((p + 1) * 100_000) + i)
              else ignore (hq.QA.try_delete_min ());
              Machine.work (1 + Rng.int rng 96)
            done)
      done)

(* ---- blocking producer/consumer runs ------------------------------------ *)

type blocking_profile = {
  producers : int;
  consumers : int;
  items_per_producer : int;
  capacity : int;
  burst : int;
  key_range : int;
  jitter : int;
}

let default_blocking_profile =
  {
    producers = 4;
    consumers = 2;
    items_per_producer = 24;
    capacity = 8;
    burst = 6;
    key_range = 256;
    jitter = 24;
  }

(* One blocking execution: producers push their quota through [insert_wait]
   in bursts (so the capacity-8 façade saturates and backpressure-parks
   them), consumers pop through [delete_min_wait] (parking on empty).  The
   consumer quotas split the total exactly, so a correct façade quiesces
   with every processor finished and an empty structure; a façade that
   loses a wakeup strands a parked processor, which the simulator's
   deadlock detector turns into an exception — reported by the sweep as an
   execution violation with a replayable seed. *)
let run_blocking ?(profile = default_blocking_profile) (impl : QA.impl) seed =
  if profile.producers < 1 then invalid_arg "Harness.run_blocking: producers < 1";
  if profile.consumers < 1 then invalid_arg "Harness.run_blocking: consumers < 1";
  let total = profile.producers * profile.items_per_producer in
  let quota c = (total / profile.consumers) + (if c < total mod profile.consumers then 1 else 0) in
  (* the drain must find nothing: the quotas are exact *)
  execute ~who:"Harness.run_blocking" ~jitter:profile.jitter
    ~capacity:(Some profile.capacity) impl seed (fun hq key ->
      for p = 0 to profile.producers - 1 do
        Machine.spawn (fun () ->
            let rng = stream seed (p + 1) 0x9E3779B97F4A7C15L in
            for i = 0 to profile.items_per_producer - 1 do
              hq.QA.insert_wait (key (Rng.int rng profile.key_range)) (((p + 1) * 100_000) + i);
              (* a long pause between bursts, a short one within *)
              if (i + 1) mod profile.burst = 0 then Machine.work (256 + Rng.int rng 512)
              else Machine.work (1 + Rng.int rng 16)
            done)
      done;
      for c = 0 to profile.consumers - 1 do
        Machine.spawn (fun () ->
            let rng = stream seed (c + 101) 0xC2B2AE3D27D4EB4FL in
            for _ = 1 to quota c do
              ignore (hq.QA.delete_min_wait ());
              Machine.work (1 + Rng.int rng 64)
            done)
      done)

type violation = { seed : int64; check : string; message : string }

type summary = {
  impl : string;
  spec : QA.spec;
  runs : int;
  events : int;  (** total recorded operations across all runs *)
  violations : violation list;
}

let seeds ~start ~count = List.init count (fun i -> Int64.add start (Int64.of_int i))

(* Each seed is an independent, pure simulation (everything derives from
   the seed), so the sweeps fan out over [jobs] domains; results are
   collected in seed order, making the summary identical for any [jobs]
   (see DESIGN.md §S16). *)
let sweep_with ~run ?bounds ~jobs (impl : QA.impl) seed_list =
  let per_seed =
    Repro_workload.Jobs.map ~jobs
      (fun seed ->
        (* A run that crashes, deadlocks, or wedges (e.g. a race corrupted
           the structure into an unbounded hunt, or a lost wakeup stranded
           a parked processor into the deadlock detector) is itself a
           caught, replayable violation — not a sweep failure. *)
        match run impl seed with
        | h ->
          ( List.length h.Checkers.events,
            List.map
              (fun (check, message) -> { seed; check; message })
              (Checkers.failures
                 (Checkers.check_all ?bounds ~rank_bound:impl.QA.rank_bound h)) )
        | exception ((Stack_overflow | Out_of_memory | Drain_overtaken _) as e) -> raise e
        | exception e ->
          (0, [ { seed; check = "execution"; message = Printexc.to_string e } ]))
      seed_list
  in
  {
    impl = impl.QA.name;
    spec = impl.QA.spec;
    runs = List.length seed_list;
    events = List.fold_left (fun acc (n, _) -> acc + n) 0 per_seed;
    violations = List.concat_map snd per_seed;
  }

let sweep_impl ?bounds ?profile ?(jobs = 1) impl seed_list =
  sweep_with ~run:(fun impl seed -> run_one ?profile impl seed) ?bounds ~jobs impl seed_list

let sweep ?bounds ?profile ?jobs impls seed_list =
  List.map (fun impl -> sweep_impl ?bounds ?profile ?jobs impl seed_list) impls

let sweep_blocking ?bounds ?profile ?(jobs = 1) impl seed_list =
  sweep_with ~run:(fun impl seed -> run_blocking ?profile impl seed) ?bounds ~jobs impl seed_list
