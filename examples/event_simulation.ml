(* Parallel discrete-event simulation — the application class the paper's
   introduction motivates priority queues with.

   A closed queueing network of M stations is simulated by N worker
   processors sharing one SkipQueue as the pending-event list, keyed by
   event timestamp.  Each worker repeatedly removes the earliest event,
   "executes" it (some local work), and schedules the job's arrival at the
   next station with an exponentially distributed service delay.  This is
   the classic optimistic shared-event-list PDES pattern: the concurrent
   Delete-min hands different workers different earliest events.

   Run with:  dune exec examples/event_simulation.exe *)

module Machine = Repro_sim.Machine
module Sim = Repro_sim.Sim_runtime
module Rng = Repro_util.Rng
module Q = Repro_skipqueue.Skipqueue.Make (Sim)

let stations = 8
let jobs = 64

(* simulated-model time units; override for quick runs *)
let horizon =
  match Sys.getenv_opt "EVENT_SIM_HORIZON" with
  | Some v -> int_of_string v
  | None -> 200_000

let workers = 16

type event = { job : int; station : int }

let () =
  let processed = Array.make workers 0 in
  let per_station = Array.make stations 0 in
  let report =
    Machine.run (fun () ->
        let q = Q.create ~seed:7L () in
        let rng0 = Rng.of_seed 1234L in
        (* Seed: every job starts at a random station at a random time.
           Keys are (model time * jobs + job) so they are unique. *)
        for j = 0 to jobs - 1 do
          let at = Rng.int rng0 1000 in
          ignore
            (Q.insert q ((at * jobs) + j) { job = j; station = Rng.int rng0 stations })
        done;
        for w = 0 to workers - 1 do
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.of_int (5000 + w)) in
              let continue = ref true in
              while !continue do
                match Q.delete_min q with
                | None -> continue := false
                | Some (key, ev) ->
                  let model_time = key / jobs in
                  if model_time >= horizon then continue := false
                  else begin
                    (* execute the event: local service-time computation *)
                    Machine.work 200;
                    processed.(w) <- processed.(w) + 1;
                    per_station.(ev.station) <- per_station.(ev.station) + 1;
                    let delay =
                      1 + int_of_float (Rng.exponential rng ~mean:500.0)
                    in
                    let next_station = Rng.int rng stations in
                    ignore
                      (Q.insert q
                         (((model_time + delay) * jobs) + ev.job)
                         { job = ev.job; station = next_station })
                  end
              done)
        done)
  in
  let total = Array.fold_left ( + ) 0 processed in
  Printf.printf
    "processed %d events for %d jobs over %d stations with %d workers\n" total jobs
    stations workers;
  Printf.printf "simulator: %d cycles, %d memory accesses, %d lock acquisitions\n"
    report.Machine.end_time report.Machine.accesses report.Machine.lock_acquisitions;
  Printf.printf "events per worker: min %d, max %d (load balance via Delete-min)\n"
    (Array.fold_left Int.min max_int processed)
    (Array.fold_left Int.max 0 processed);
  print_string "station event counts:";
  Array.iter (Printf.printf " %d") per_station;
  print_newline ()
