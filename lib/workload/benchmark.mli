(** The paper's synthetic benchmark (§5), on the simulator ({!run},
    {!probe}) or on real domains ({!native}).

    Processors alternate between [work_cycles] of local work and one queue
    operation; each operation is an Insert of a uniformly random priority
    with probability [insert_ratio], a Delete-min otherwise.  The structure
    is pre-populated with [initial_size] random elements before the
    processors start, and per-operation latency (in simulated machine
    cycles, measured with the free probe, or host nanoseconds) is
    accumulated separately for Inserts and Delete-mins.  All three entry
    points run one call loop, so {!run} and {!native} on the same workload
    issue the same call sequence per processor. *)

type workload = {
  procs : int;
  initial_size : int;
  total_ops : int;  (** split evenly over the processors *)
  insert_ratio : float;
  work_cycles : int;
  key_range : int;
  seed : int64;
}

val default_workload : workload
(** 16 procs, 50 initial, 7000 ops, 50% inserts, 100 cycles work, keys
    below 2^20, seed 1. *)

type measurement = {
  insert_latency : Repro_util.Stats.t;
  delete_latency : Repro_util.Stats.t;
  overall_latency : Repro_util.Stats.t;
  insert_histogram : Repro_util.Histogram.t;
      (** log-bucketed latency distribution; tail quantiles via
          {!Repro_util.Histogram.quantile} *)
  delete_histogram : Repro_util.Histogram.t;
  rank_error : Repro_util.Stats.t;
      (** per-Delete-min quality: how many live elements were strictly
          smaller than the returned key at completion time, tracked by a
          host-side oracle that costs no simulated cycles.  Near zero for
          strict structures (residual noise from concurrent completions),
          the quantity relaxed structures trade for scalability. *)
  end_time : int;  (** simulated cycles from first to last operation *)
  final_size : int;  (** structure size at quiescence *)
  machine : Repro_sim.Machine.report;
  queue_stats : (string * float) list;
      (** the instance's structured counters (see
          {!Queue_adapter.instance.stats}), collected at quiescence *)
}

val run :
  ?config:Repro_sim.Memory_model.config ->
  ?perturb:Repro_sim.Machine.perturbation ->
  ?fast_path:bool ->
  Queue_adapter.impl ->
  workload ->
  measurement
(** Deterministic: equal [config], [perturb], [impl], [workload] (and
    therefore seed) give byte-equal measurements.  [config] overrides the
    default memory model — used by the model-sensitivity ablation;
    [perturb] switches the simulator into schedule-exploration mode (see
    {!Repro_sim.Machine.perturbation}) — used by the history fuzzer;
    [fast_path] (default [true]) is {!Repro_sim.Machine.run}'s scheduler
    run-ahead toggle — measurements are identical either way (the
    simulator-throughput bench measures the host-time difference). *)

val probe :
  ?tracer:Repro_sim.Trace.sink ->
  Queue_adapter.impl ->
  workload ->
  Repro_sim.Machine.report * Repro_util.Stats.t
(** The contention probe behind [profile.exe] and the figures' head-of-list
    probes: the same mix as {!run}, on the probe's own fixed schedule.  The
    prefill draws from root seed 99, processor [p] from seed [7000 + p]
    ([seed] is not used), and each of the [procs] processors runs
    [total_ops / procs] operations (rounded down).  There is no post-mortem
    processor, so [tracer] sees only the workload; attaching one leaves the
    report unchanged.  Returns the machine report and every operation's
    latency.  Raises [Invalid_argument] for [procs] outside [1, 511],
    [insert_ratio] outside [0, 1], or [total_ops < procs]. *)

type native_measurement = {
  insert_latency_ns : Repro_util.Stats.t;
  delete_latency_ns : Repro_util.Stats.t;
  wall_ns : float;  (** the processors' run, prefill excluded *)
  throughput_ops_per_sec : float;
}

val native : Queue_adapter.impl -> workload -> native_measurement
(** {!run}'s workload and streams on real OCaml 5 domains: [procs] is the
    domain count (keep it near the host's core count), [work_cycles] runs
    as {!Repro_runtime.Native_runtime.work} spins, and latencies are
    nanoseconds from the host's monotonic clock.  On a small host this
    measures correctness under parallelism and single-digit-domain
    scaling, not the paper's 256-processor regime.  Raises
    [Invalid_argument] for [procs < 1] or [insert_ratio] outside [0, 1],
    as {!run} does. *)

val pp_measurement : Format.formatter -> measurement -> unit
