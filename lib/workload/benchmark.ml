module Machine = Repro_sim.Machine
module Memory_model = Repro_sim.Memory_model
module Rng = Repro_util.Rng
module Stats = Repro_util.Stats

type workload = {
  procs : int;
  initial_size : int;
  total_ops : int;
  insert_ratio : float;
  work_cycles : int;
  key_range : int;
  seed : int64;
}

let default_workload =
  {
    procs = 16;
    initial_size = 50;
    total_ops = 7_000;
    insert_ratio = 0.5;
    work_cycles = 100;
    key_range = Queue_adapter.max_key_range;
    seed = 1L;
  }

type measurement = {
  insert_latency : Stats.t;
  delete_latency : Stats.t;
  overall_latency : Stats.t;
  rank_error : Stats.t;
  end_time : int;
  final_size : int;
  machine : Repro_sim.Machine.report;
  queue_stats : (string * float) list;
}

(* Host-side multiset rank oracle over the workload's bounded key range: a
   Fenwick tree counting live elements per key.  Updated at operation
   completion (host code between simulator effects never interleaves, so
   updates are atomic w.r.t. the virtual processors); the rank error of a
   Delete-min is the number of live elements strictly smaller than the key
   it returned.  A Delete-min can complete before the Insert that produced
   its element does — such keys are booked as debts and cancelled when the
   insert completes.  Duplicate keys follow the queue's own semantics via
   {!Queue_adapter.impl.dedups}: multiset for the heap/funnel/MultiQueue
   family, set (update-in-place) for the SkipQueue family. *)
module Rank_oracle = struct
  type t = {
    tree : int array; (* 1-based Fenwick; index k+1 carries key k *)
    counts : (int, int) Hashtbl.t;
    debts : (int, int) Hashtbl.t;
    range : int;
  }

  (* The Fenwick array is [range + 1] words — 8 MB at the benchmarks'
     default 2^20 key range, far beyond the minor heap, so allocating one
     per run is pure major-heap churn (a dozen runs per fig7 sweep turned
     into ~100 MB of dead 8 MB arrays and a major collection apiece).
     Runs on one domain reuse a pooled array per range instead; [release]
     below returns it zeroed.  Domain-local so concurrent sweep domains
     never share a tree. *)
  let pool : (int, int array) Hashtbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 4)

  let create ~range =
    let pool = Domain.DLS.get pool in
    let tree =
      match Hashtbl.find_opt pool range with
      | Some tree ->
        Hashtbl.remove pool range;
        tree
      | None -> Array.make (range + 1) 0
    in
    { tree; counts = Hashtbl.create 1024; debts = Hashtbl.create 64; range }

  let add t k delta =
    let i = ref (k + 1) in
    while !i <= t.range do
      t.tree.(!i) <- t.tree.(!i) + delta;
      i := !i + (!i land - !i)
    done

  let count_less t k =
    let s = ref 0 in
    let i = ref (Int.min k t.range) in
    while !i > 0 do
      s := !s + t.tree.(!i);
      i := !i - (!i land - !i)
    done;
    !s

  let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)
  let set tbl k v = if v = 0 then Hashtbl.remove tbl k else Hashtbl.replace tbl k v

  (* [dedup] mirrors update-in-place queues (SkipQueue family): inserting
     a key that is already live changes nothing, so duplicate random
     priorities don't register as phantom elements below the true min. *)
  let insert ?(dedup = false) t k =
    let d = get t.debts k in
    if d > 0 then set t.debts k (d - 1)
    else if not (dedup && get t.counts k > 0) then begin
      set t.counts k (get t.counts k + 1);
      add t k 1
    end

  let delete t k =
    let rank = count_less t k in
    let c = get t.counts k in
    if c > 0 then begin
      set t.counts k (c - 1);
      add t k (-1)
    end
    else set t.debts k (get t.debts k + 1);
    rank

  (* Return the tree to the pool zeroed.  Only [add] writes the tree, and
     an insert/delete pair of the same key walks the same update path, so
     the array equals the sum of the live keys' paths: subtracting each
     remaining count restores all-zero in O(live · log range) instead of
     an O(range) sweep. *)
  let release t =
    Hashtbl.iter (fun k c -> if c <> 0 then add t k (-c)) t.counts;
    let pool = Domain.DLS.get pool in
    if not (Hashtbl.mem pool t.range) then Hashtbl.add pool t.range t.tree
end

let validate who w =
  let fail fmt = Printf.ksprintf invalid_arg ("%s: " ^^ fmt) who in
  if w.procs < 1 then fail "procs < 1";
  if not (w.insert_ratio >= 0.0 && w.insert_ratio <= 1.0) then fail "insert_ratio outside [0, 1]";
  if w.key_range < 1 || w.key_range > Queue_adapter.max_key_range then
    fail "key_range %d outside [1, %d]" w.key_range Queue_adapter.max_key_range;
  if w.initial_size < 0 then fail "initial_size < 0";
  if w.total_ops < 0 then fail "total_ops < 0";
  if w.work_cycles < 0 then fail "work_cycles < 0"

(* [run]'s and [native]'s streams: the prefill draws from [seed],
   processor [p] from [seed + 0x1234 + p], and [total_ops] is split as
   evenly as possible over the processors. *)
let proc_rng w p = Rng.of_seed (Int64.add w.seed (Int64.of_int (0x1234 + p)))
let ops_for w p = (w.total_ops / w.procs) + (if p < w.total_ops mod w.procs then 1 else 0)

let prefill (q : Queue_adapter.instance) w rng ~first_id ~inserted =
  for i = 0 to w.initial_size - 1 do
    let key = Rng.int rng w.key_range in
    q.Queue_adapter.insert key (first_id + i);
    inserted key
  done

(* Processor [p]'s share of the §5 mix: [ops] rounds of [work_cycles] of
   local work, then one call timed with [now], an Insert with probability
   [insert_ratio] and a Delete-min otherwise.  [inserted key dt] and
   [deleted result dt] run at the call's completion.  On the simulator
   [now] is the free probe and the callbacks are host code between
   effects, so neither touches the schedule or costs a cycle. *)
let calls ~work ~now ~inserted ~deleted (q : Queue_adapter.instance) w rng p ops =
  for i = 0 to ops - 1 do
    work w.work_cycles;
    let t0 = now () in
    if Rng.bernoulli rng w.insert_ratio then begin
      let key = Rng.int rng w.key_range in
      q.Queue_adapter.insert key ((p * 1_000_000) + i);
      inserted key (now () - t0)
    end
    else
      let result = q.Queue_adapter.try_delete_min () in
      deleted result (now () - t0)
  done

let merge arr = Array.fold_left Stats.merge (Stats.create ()) arr

let run ?(config = Memory_model.default) ?fast_path (impl : Queue_adapter.impl) w =
  validate "Benchmark.run" w;
  let limit = config.Memory_model.max_procs - 2 in
  if w.procs > limit then
    Printf.ksprintf invalid_arg
      "Benchmark.run: procs %d > %d (the config's processor limit, less the root and the \
       post-mortem reader)"
      w.procs limit;
  let insert_stats = Array.init w.procs (fun _ -> Stats.create ()) in
  let delete_stats = Array.init w.procs (fun _ -> Stats.create ()) in
  let rank_stats = Array.init w.procs (fun _ -> Stats.create ()) in
  let oracle = Rank_oracle.create ~range:w.key_range in
  let dedup = impl.Queue_adapter.dedups in
  let first_op_time = ref max_int in
  let last_op_time = ref 0 in
  let final_size = ref 0 in
  let queue_stats = ref [] in
  let report =
    Machine.run ~config ?fast_path (fun () ->
        let q = impl.Queue_adapter.create () in
        prefill q w (Rng.of_seed w.seed) ~first_id:1_000_000_000
          ~inserted:(Rank_oracle.insert ~dedup oracle);
        let start_time = Machine.probe_time () in
        if start_time < !first_op_time then first_op_time := start_time;
        for p = 0 to w.procs - 1 do
          let rng = proc_rng w p in
          Machine.spawn (fun () ->
              calls ~work:Machine.work ~now:Machine.probe_time q w rng p (ops_for w p)
                ~inserted:(fun key dt ->
                  Rank_oracle.insert ~dedup oracle key;
                  Stats.add insert_stats.(p) (float_of_int dt))
                ~deleted:(fun result dt ->
                  (match result with
                  | None -> ()
                  | Some (key, _) ->
                    Stats.add rank_stats.(p)
                      (float_of_int (Rank_oracle.delete oracle key)));
                  Stats.add delete_stats.(p) (float_of_int dt));
              let t = Machine.probe_time () in
              if t > !last_op_time then last_op_time := t)
        done;
        (* Post-mortem processor: runs after everything quiesced, counts
           the remaining elements without perturbing the measurements. *)
        Machine.spawn (fun () ->
            (* far beyond any workload's finish time, safely below overflow *)
            Machine.work (1 lsl 55);
            let rec count n =
              match q.Queue_adapter.try_delete_min () with
              | None -> n
              | Some _ -> count (n + 1)
            in
            final_size := count 0;
            queue_stats := q.Queue_adapter.stats ()))
  in
  Rank_oracle.release oracle;
  let insert_latency = merge insert_stats in
  let delete_latency = merge delete_stats in
  {
    insert_latency;
    delete_latency;
    overall_latency = Stats.merge insert_latency delete_latency;
    rank_error = merge rank_stats;
    end_time = !last_op_time - !first_op_time;
    final_size = !final_size;
    machine = report;
    queue_stats = !queue_stats;
  }

(* The traced contention probe's schedule: fixed streams (root seed 99,
   processor p seeded 7000 + p), ⌊total_ops / procs⌋ operations per
   processor, and no post-mortem processor, so a tracer sees only the
   workload. *)
let probe ?tracer (impl : Queue_adapter.impl) w =
  let fail fmt = Printf.ksprintf invalid_arg ("Benchmark.probe: " ^^ fmt) in
  let limit = Memory_model.default.Memory_model.max_procs - 1 in
  validate "Benchmark.probe" w;
  if w.procs > limit then
    fail "procs %d > %d (the simulator's processor limit, less the root)" w.procs limit;
  if w.total_ops < w.procs then
    fail "total_ops %d < procs %d (every processor needs an operation)" w.total_ops w.procs;
  let latency = Stats.create () in
  let sample _ dt = Stats.add latency (float_of_int dt) in
  let report =
    Machine.run ?tracer (fun () ->
        let q = impl.Queue_adapter.create () in
        prefill q w (Rng.of_seed 99L) ~first_id:1_000_000 ~inserted:ignore;
        for p = 0 to w.procs - 1 do
          let rng = Rng.of_seed (Int64.of_int (7_000 + p)) in
          Machine.spawn (fun () ->
              calls ~work:Machine.work ~now:Machine.probe_time q w rng p
                (w.total_ops / w.procs) ~inserted:sample ~deleted:sample)
        done)
  in
  (report, latency)

type native_measurement = {
  insert_latency_ns : Stats.t;
  delete_latency_ns : Stats.t;
  wall_ns : float;
  throughput_ops_per_sec : float;
}

let native (impl : Queue_adapter.impl) w =
  validate "Benchmark.native" w;
  let now () = Int64.to_int (Monotonic_clock.now ()) in
  let q = impl.Queue_adapter.create () in
  prefill q w (Rng.of_seed w.seed) ~first_id:1_000_000_000 ~inserted:ignore;
  let insert_stats = Array.init w.procs (fun _ -> Stats.create ()) in
  let delete_stats = Array.init w.procs (fun _ -> Stats.create ()) in
  let started = now () in
  Repro_runtime.Native_runtime.run_processors w.procs (fun p ->
      calls ~work:Repro_runtime.Native_runtime.work ~now q w (proc_rng w p) p (ops_for w p)
        ~inserted:(fun _ dt -> Stats.add insert_stats.(p) (float_of_int dt))
        ~deleted:(fun _ dt -> Stats.add delete_stats.(p) (float_of_int dt)));
  let wall_ns = float_of_int (now () - started) in
  {
    insert_latency_ns = merge insert_stats;
    delete_latency_ns = merge delete_stats;
    wall_ns;
    throughput_ops_per_sec = float_of_int w.total_ops /. (wall_ns /. 1e9);
  }
