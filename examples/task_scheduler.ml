(* Task scheduler on the bounded/blocking façade: the flagship park/wake
   scenario, runnable end-to-end.

   A site with a 2,000,000-user id space schedules jobs
   earliest-deadline-first.  Front-end processors accept jobs in bursts
   and push them through [insert_wait] into a capacity-bounded priority
   queue keyed by deadline; worker processors loop on [delete_min_wait]
   and spend simulated service time per job.  Frontends outnumber workers
   and bursts outpace service, so both condition variables engage: workers
   park through lulls, frontends park on the capacity bound — the
   backpressure that keeps the backlog (and the deadline misses) bounded
   instead of letting the queue grow without limit.

   Run with:   dune exec examples/task_scheduler.exe
   Scale with: SCHED_JOBS=20000 dune exec examples/task_scheduler.exe

   The full parameter sweep lives in bin/experiments.exe ("scheduler"). *)

module Machine = Repro_sim.Machine
module QA = Repro_workload.Queue_adapter
module Rng = Repro_util.Rng

let user_space = 2_000_000
let frontends = 6
let workers = 3
let capacity = 32

let jobs_total =
  match Sys.getenv_opt "SCHED_JOBS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 && n <= 1 lsl 20 -> n
    | _ -> invalid_arg "SCHED_JOBS must be a positive integer <= 2^20")
  | None -> 2_000

let split total parts p = (total / parts) + if p < total mod parts then 1 else 0
let offset total parts p = (p * (total / parts)) + Int.min p (total mod parts)

let run_backend name (impl : QA.impl) =
  let insert_t = Array.make jobs_total 0 in
  let deadline = Array.make jobs_total 0 in
  let pop_t = Array.make jobs_total (-1) in
  let user = Array.make jobs_total 0 in
  let facade_stats = ref [] in
  let (_ : Machine.report) =
    Machine.run (fun () ->
        let q = impl.QA.create () in
        for p = 0 to frontends - 1 do
          let base = offset jobs_total frontends p in
          let count = split jobs_total frontends p in
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.of_int (0x5EED + p)) in
              for i = 0 to count - 1 do
                let j = base + i in
                let now = Machine.probe_time () in
                let slack = 2_000 + Rng.int rng 30_000 in
                user.(j) <- Rng.int rng user_space;
                insert_t.(j) <- now;
                deadline.(j) <- now + slack;
                (* deadline in the high bits keeps EDF order; the job
                   counter in the low 20 makes every key unique, so the
                   SkipQueue's update-in-place cannot merge two jobs *)
                q.QA.insert_wait (((now + slack) lsl 20) lor j) j;
                if (i + 1) mod 8 = 0 then Machine.work (1_000 + Rng.int rng 2_000)
                else Machine.work (1 + Rng.int rng 32)
              done)
        done;
        for c = 0 to workers - 1 do
          let quota = split jobs_total workers c in
          Machine.spawn (fun () ->
              let rng = Rng.of_seed (Int64.of_int (0xC0FFEE + c)) in
              for _ = 1 to quota do
                let _key, j = q.QA.delete_min_wait () in
                pop_t.(j) <- Machine.probe_time ();
                Machine.work (150 + Rng.int rng 150)
              done)
        done;
        (* read the façade counters after quiescence, still in-simulation *)
        Machine.spawn (fun () ->
            Machine.work (1 lsl 50);
            facade_stats := q.QA.stats ()))
  in
  let missed = ref 0 and total_sojourn = ref 0 and finish = ref 0 in
  let users = Hashtbl.create (2 * jobs_total) in
  for j = 0 to jobs_total - 1 do
    assert (pop_t.(j) >= 0);
    total_sojourn := !total_sojourn + (pop_t.(j) - insert_t.(j));
    if pop_t.(j) > deadline.(j) then incr missed;
    if pop_t.(j) > !finish then finish := pop_t.(j);
    Hashtbl.replace users user.(j) ()
  done;
  let stat k = try int_of_float (List.assoc k !facade_stats) with Not_found -> 0 in
  Printf.printf
    "%-28s %d jobs / %d users: mean sojourn %d cycles, %d deadline misses \
     (%.1f%%), worker parks %d, backpressure stalls %d, makespan %d\n"
    name jobs_total (Hashtbl.length users)
    (!total_sojourn / jobs_total)
    !missed
    (100.0 *. float_of_int !missed /. float_of_int jobs_total)
    (stat "parks") (stat "backpressure_stalls") !finish

let () =
  Printf.printf
    "EDF task scheduler: %d frontends -> bounded queue (capacity %d) -> %d workers\n"
    frontends capacity workers;
  run_backend "bounded:SkipQueue" (QA.Sim.bounded ~capacity (QA.Sim.skipqueue ()));
  run_backend "bounded:MultiQueue"
    (QA.Sim.bounded ~capacity (QA.Sim.make ~procs:(frontends + workers) (QA.plain QA.Multiqueue)));
  print_endline "both backends drained exactly; every job was scheduled once"
