(* Host-cost rows for single layers, measured through their public
   functions: the event heap, the memory model (by replaying a traced
   run's access stream) and the native runtime's clock and lock. *)

module Event_queue = Repro_sim.Event_queue
module Memory_model = Repro_sim.Memory_model
module Native = Repro_runtime.Native_runtime

let ns_per ~n f =
  let t0 = Clock.now_ns () in
  f ();
  (Clock.now_ns () -. t0) /. float_of_int n

(* One pop plus one insert, as the scheduler does per heap round trip, on a
   heap holding one pending event per processor. *)
let event_queue_op_ns ~procs =
  let n = 2_000_000 in
  let q = Event_queue.create () in
  let thunk () = () in
  let rng = Repro_util.Rng.of_seed 7L in
  let deltas = Array.init 4096 (fun _ -> 1 + Repro_util.Rng.int rng 400) in
  for p = 0 to procs - 1 do
    Event_queue.insert q ~time:deltas.(p land 4095) ~seq:p ~proc:p thunk
  done;
  ns_per ~n (fun () ->
      for i = 1 to n do
        ignore (Event_queue.pop q);
        Event_queue.insert q
          ~time:(Event_queue.popped_time q + deltas.(i land 4095))
          ~seq:(procs + i) ~proc:(Event_queue.popped_proc q) thunk
      done)

(* Replays each backend's recorded accesses through
   [Memory_model.access_into] on a fresh default system, as its pass ran
   them; lines are registered up front so only the charging is timed. *)
let memory_model_access_ns (s : Spans.t) =
  let replay (first, n) =
    let sys = Memory_model.make_system Memory_model.default in
    let metas = Hashtbl.create 4096 in
    let meta =
      Array.init n (fun i ->
          let loc = s.Spans.acc_meta.(first + i) lsr 11 in
          match Hashtbl.find_opt metas loc with
          | Some m -> m
          | None ->
            let m = Memory_model.make_meta sys ~id:loc in
            Hashtbl.add metas loc m;
            m)
    in
    let out = Memory_model.make_scratch () in
    let t0 = Clock.now_ns () in
    for i = 0 to n - 1 do
      let packed = s.Spans.acc_meta.(first + i) in
      Memory_model.access_into out sys meta.(i)
        ~proc:((packed lsr 2) land 511)
        ~now:s.Spans.acc_now.(first + i)
        (Spans.kind_of_code (packed land 3))
    done;
    Clock.now_ns () -. t0
  in
  let total_ns = List.fold_left (fun acc seg -> acc +. replay seg) 0.0 s.Spans.segments in
  total_ns /. float_of_int (Int.max 1 s.Spans.naccesses)

(* [Native_runtime.get_time] and an acquire/release pair, alone and with
   both domains hammering the same clock or lock. *)
let native_micro () =
  let n = 2_000_000 in
  let clock_loop _ =
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Native.get_time ()))
    done
  in
  let lock = Native.lock_create () in
  let lock_loop _ =
    for _ = 1 to n do
      Native.acquire lock;
      Native.release lock
    done
  in
  [
    ("native_runtime.get_time_ns", ns_per ~n (fun () -> clock_loop 0));
    ( "native_runtime.get_time_contended_ns",
      ns_per ~n (fun () -> Native_pass.on_two_domains clock_loop) );
    ("native_runtime.mutex_ns", ns_per ~n (fun () -> lock_loop 0));
    ( "native_runtime.mutex_contended_ns",
      ns_per ~n (fun () -> Native_pass.on_two_domains lock_loop) );
  ]
