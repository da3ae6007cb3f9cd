(** The Proteus-like multiprocessor simulator.

    A {e virtual processor} is an ordinary OCaml closure executed under an
    effect handler.  Every runtime operation ({!Sim_runtime.read},
    [write], [swap], [acquire], [work], ...) is one step: it charges its
    simulated cycles from {!Memory_model} in place, then yields to the
    scheduler (an effect whose handler re-enqueues the continuation keyed
    by the processor's local clock) or parks, and the scheduler always
    resumes the globally-earliest runnable processor.  Between two steps a
    processor runs uninterrupted, so memory operations are atomic and
    interleave in simulated-time order — the same granularity at which
    Proteus multiplexes threads.

    The simulation is deterministic: equal programs and seeds produce equal
    schedules, cycle counts and results. *)

type report = {
  end_time : int;  (** simulated cycles until the last processor finished *)
  processors : int;  (** total processors that ran (including the root) *)
  events : int;
      (** scheduler dispatches: every resumption of a processor, whether
          through the event heap or the run-ahead fast path — the
          simulator-throughput bench's denominator *)
  accesses : int;
  cache_hits : int;
  queued_cycles : int;  (** total cycles spent waiting on memory modules *)
  swaps : int;
  lock_acquisitions : int;
      (** {e successful} acquisitions (grants), uniformly across both lock
          operations: an immediate [lock_acquire] grant, the handoff to a
          parked waiter at release time, and a successful
          [lock_try_acquire] each count one.  A parked attempt is counted
          once — when its grant arrives — never per attempt. *)
  lock_contentions : int;  (** [lock_acquire] attempts that had to park *)
  lock_wait_cycles : int;  (** total cycles parked waiting for locks *)
  lock_try_failures : int;
      (** [lock_try_acquire] attempts that found the lock held.  Total
          attempted lock RMWs = [lock_acquisitions + lock_try_failures]:
          every attempt either eventually succeeds (counted in
          acquisitions, once) or is a failed try. *)
  cond_parkings : int;  (** [cond_wait] calls (each one parks) *)
  cond_wait_cycles : int;
      (** total cycles parked on condition variables, park to signal
          delivery; the re-acquisition of the guarding lock after the wake
          is accounted under the lock counters like any acquisition *)
}

exception Deadlock of string
(** Raised when no processor is runnable but some are parked — on locks or
    on condition variables.  The message distinguishes the two: each lock
    with waiters is named with its holder and parked processor ids, and
    each condition with waiters is named together with its guarding lock,
    e.g.
    ["3 processor(s) parked (1 on locks, 2 on conditions), none runnable:
      \"a\" held by 2, waited on by [1],
      condition \"not_empty\" (lock \"pop\") waited on by [3; 4]"].
    When only locks have waiters the historical lock-only wording is kept. *)

type perturbation = { sched_seed : int64; jitter : int }
(** Schedule-exploration mode (the history fuzzer's lever).  A seeded
    stream randomizes the tie-break between same-time events (replacing
    the FIFO sequence number) and delays every scheduled event by a
    uniform 0..[jitter] extra cycles, so distinct seeds drive the same
    program through distinct legal interleavings.  Each seed remains fully
    deterministic and replayable; [jitter = 0] leaves event times exact
    and randomizes only the ties. *)

val run :
  ?config:Memory_model.config ->
  ?tracer:Trace.sink ->
  ?perturb:perturbation ->
  ?fast_path:bool ->
  (unit -> unit) ->
  report
(** [run main] executes [main] as virtual processor 0 and returns when all
    processors (0 and everything it {!spawn}ed, transitively) have
    finished.  Exceptions raised by processors propagate.  [tracer]
    receives every scheduling and memory event (see {!Trace}); tracing a
    long benchmark is expensive, use it on diagnostic runs.  Without
    [perturb] the schedule is the canonical one — byte-identical across
    runs of the same program; with it, the schedule is perturbed as
    described at {!type-perturbation} (still deterministic per seed).

    [fast_path] (default [true]) enables run-ahead: a processor whose
    clock after a step is strictly below the event heap's minimum
    timestamp keeps running instead of yielding, skipping the heap
    round-trip.  This is an optimization only — it reproduces the
    canonical schedule exactly (DESIGN.md §S16 states the invariant) and
    is off under [perturb], whose jitter re-keys events.  Setting it to
    [false] makes every step yield through the heap; the determinism
    golden tests pin that both modes agree to the byte. *)

(** The operations below may only be called from inside a processor (i.e.
    during {!run}); elsewhere they raise [Failure]. *)

val spawn : (unit -> unit) -> unit
(** Starts a new virtual processor whose local clock starts at the
    spawner's current clock. *)

val work : int -> unit
(** Burn local cycles. *)

val get_time : unit -> int
(** Read the shared cycle clock (fixed small cost, no queueing — the
    hardware clock is replicated). *)

val self : unit -> int
(** Identifier of the calling virtual processor (0 for the root). *)

val probe_time : unit -> int
(** The calling processor's local clock, free of charge — for harness
    instrumentation only (the paper's Proteus likewise reads thread time
    without perturbing the simulation).  Algorithms must use {!get_time}. *)

val alloc_meta : unit -> Memory_model.meta
(** Allocate bookkeeping for a fresh shared location. *)

val access : Memory_model.meta -> Memory_model.kind -> unit
(** Charge one shared-memory access; returns once the access has been
    serviced in simulated time. *)

type lock

val lock_create : ?name:string -> unit -> lock
val lock_acquire : lock -> unit
(** FIFO-fair; parked processors generate no memory traffic (the paper
    uses Proteus semaphores, i.e. blocking locks). *)

val lock_try_acquire : lock -> bool
(** Non-blocking acquire: returns whether the lock was taken.  Charged as
    one atomic RMW on the lock word in both outcomes; a failed try never
    parks. *)

val lock_release : lock -> unit
(** Raises [Failure] if the caller does not hold the lock. *)

(** {2 Condition variables}

    Monitor-style park/wake, tied to a guarding lock at creation.  Waiters
    park in FIFO order; a signal wakes the longest-parked waiter at
    [max(signaler clock, park time) + handoff] — the same handoff charge a
    lock release pays — and the woken processor re-acquires the guarding
    lock as an ordinary acquirer (granted immediately if free, parked on
    the lock FIFO otherwise) before its [cond_wait] returns.  Parked
    processors generate no memory traffic, and their waited cycles are
    reported per condition through {!Trace} and in aggregate in
    {!type-report}.  All of this is pay-as-you-go: programs that never
    touch a condition run byte-identically to a machine without them. *)

type cond

val cond_create : ?name:string -> lock -> cond
(** Free of simulated charge, like {!lock_create}. *)

val cond_wait : cond -> unit
(** Atomically releases the guarding lock (a full release, with handoff)
    and parks until signaled; re-acquires the lock before returning.
    Raises [Failure] if the caller does not hold the guarding lock. *)

val cond_signal : cond -> unit
(** Wakes the longest-parked waiter, if any.  Charged as one shared write
    on the condition word.  The caller need not hold the guarding lock. *)

(** {2 Free probes} *)

val probe_lock_stats : unit -> int * int
(** [(lock_acquisitions, lock_try_failures)] so far, free of simulated
    charge — harness instrumentation (differencing two readings brackets
    a code region's lock traffic). *)

val probe_runnable : unit -> int
(** How many other processors are ready to run (spawned or woken and not
    yet resumed), free of charge.  Zero means every other processor has
    finished or is parked: the harness's drain checks it to tell a drain
    at quiescence from one a jittered worker overtook. *)

val probe_blocking : unit -> int * int * int
(** [(cond_parks, last_park_at, last_wake_at)] for the calling processor,
    free of charge: cumulative [cond_wait] parkings, and the simulated
    times of its most recent condition park and wake ([-1] before the
    first).  The blocking-aware history recorder brackets each operation
    with this probe to attach park/wake spans to recorded operations. *)
