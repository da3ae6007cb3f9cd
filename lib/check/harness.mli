(** The schedule-exploration fuzzer: seeded perturbed executions of any
    registered queue implementation on the simulator, checked against the
    suite its declared {!Repro_workload.Queue_adapter.spec} selects.

    One run = one [Machine.run] under a {!Repro_sim.Machine.perturbation}
    derived from the seed: a prefilled queue hammered by [procs] worker
    processors doing a random insert/delete-min mix, recorded by
    {!History.wrap}, then drained at quiescence.  Everything — workload
    randomness, schedule tie-breaks, latency jitter — is a deterministic
    function of the seed, so any reported violation replays exactly. *)

type profile = {
  procs : int;  (** worker processors (the drain runs on one more) *)
  ops_per_proc : int;
  prefill : int;  (** elements inserted by the root before workers start *)
  insert_ratio : float;  (** probability an op is an insert, in [0,1] *)
  key_range : int;  (** raw priorities are uniform in [0, key_range) *)
  jitter : int;  (** {!Repro_sim.Machine.perturbation.jitter} *)
}

val default_profile : profile
(** 6 procs x 30 ops, 16 prefilled, half inserts, keys < 256, jitter 24 —
    small enough that the exhaustive Definition-1 windows usually apply,
    contended enough to explore real races. *)

exception Drain_overtaken of { seed : int64; drain_start : int; last_response : int }
(** Raised by a run (and passed through the sweeps, never reported as a
    violation) when the jitter kept a worker runnable at [drain_start],
    the clock at which the drain processor began emptying the queue "at
    quiescence", and a recorded operation responded at or after it
    ([last_response]).  Such a run checks nothing: the drain raced live
    operations. *)

val run_one : ?profile:profile -> Repro_workload.Queue_adapter.impl -> int64 -> Checkers.history
(** One perturbed execution under the given schedule seed.  For
    implementations that update duplicate keys in place ([dedups]), raw
    keys are made unique by a low-bits insertion counter (order-preserving)
    so id-exact conservation applies.  Raises {!Drain_overtaken} when the
    jitter voids the run. *)

type blocking_profile = {
  producers : int;  (** processors inserting through [insert_wait] *)
  consumers : int;  (** processors popping through [delete_min_wait] *)
  items_per_producer : int;
  capacity : int;
      (** recorded into the history for {!Checkers.capacity_bound}; MUST
          equal the capacity the implementation's façade was created
          with — the harness cannot see inside the instance *)
  burst : int;  (** inserts per burst; bursts are separated by long pauses *)
  key_range : int;
  jitter : int;
}

val default_blocking_profile : blocking_profile
(** 4 producers x 24 items in bursts of 6 against 2 consumers through a
    capacity-8 façade — saturates both conditions (backpressure parks and
    empty-queue parks) many times per run. *)

val run_blocking :
  ?profile:blocking_profile -> Repro_workload.Queue_adapter.impl -> int64 -> Checkers.history
(** One blocking producer/consumer execution of a bounded/blocking
    implementation (a ["bounded:*"] registry entry re-created at
    [profile.capacity], or a mutant).  Consumer quotas split the produced
    total exactly, so a correct façade quiesces empty with every processor
    finished; a lost wakeup strands a parked processor and surfaces as the
    simulator's deadlock exception.  The returned history carries
    [capacity = Some profile.capacity] and the parked-operation spans, so
    {!Checkers.check_all} includes the blocking suite. *)

type violation = { seed : int64; check : string; message : string }

type summary = {
  impl : string;
  spec : Repro_workload.Queue_adapter.spec;
  runs : int;
  events : int;  (** total recorded operations across all runs *)
  violations : violation list;
}

val seeds : start:int64 -> count:int -> int64 list

val sweep_impl :
  ?bounds:Checkers.bounds ->
  ?profile:profile ->
  ?jobs:int ->
  Repro_workload.Queue_adapter.impl ->
  int64 list ->
  summary
(** Runs every seed through {!run_one} and {!Checkers.check_all}.
    [jobs] (default 1) fans the seeds out over that many domains via
    {!Repro_workload.Jobs.map}; seeds are independent simulations, so the
    summary is identical for any [jobs]. *)

val sweep :
  ?bounds:Checkers.bounds ->
  ?profile:profile ->
  ?jobs:int ->
  Repro_workload.Queue_adapter.impl list ->
  int64 list ->
  summary list

val sweep_blocking :
  ?bounds:Checkers.bounds ->
  ?profile:blocking_profile ->
  ?jobs:int ->
  Repro_workload.Queue_adapter.impl ->
  int64 list ->
  summary
(** {!run_blocking} + {!Checkers.check_all} over every seed, with the same
    fan-out and replayability as {!sweep_impl}. *)
