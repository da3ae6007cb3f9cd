(** The execution-environment abstraction all concurrent structures are
    written against.

    The paper's algorithms need exactly these primitives: shared memory
    cells with READ / WRITE / atomic SWAP, fair locks, a shared cycle clock
    ([getTime]), and a way to burn local work cycles.  The post-paper
    structures add COMPARE-AND-SWAP, FETCH-AND-ADD and condition
    variables.  Two implementations exist:

    - {!Native_runtime}: real parallelism — OCaml 5 [Atomic] cells,
      [Mutex] locks, domains as processors.
    - [Repro_sim.Sim_runtime]: the Proteus-like simulator — every operation
      is a step of the machine scheduler, which charges simulated cycles
      and interleaves virtual processors in simulated-time order.

    Data structures are functors over {!S} and therefore run unchanged on
    both. *)

module type S = sig
  type 'a shared
  (** A shared mutable memory cell.  On the simulator every access is
      charged a latency from the memory model and hot cells queue. *)

  val shared : ?name:string -> 'a -> 'a shared
  (** [shared v] allocates a cell initialised to [v].  [name] is used only
      for tracing/diagnostics. *)

  val read : 'a shared -> 'a
  val write : 'a shared -> 'a -> unit

  val swap : 'a shared -> 'a -> 'a
  (** Atomic register-to-memory swap: writes the new value and returns the
      previous one, in a single atomic step.  The only universal primitive
      the paper's Delete-min needs. *)

  val cas : 'a shared -> 'a -> 'a -> bool
  (** [cas cell expected v] atomically compares the cell's content with
      [expected] (physical equality, like [Atomic.compare_and_set]) and, on
      a match, replaces it with [v].  Returns whether the write happened.
      Charged as one atomic read-modify-write step, like {!swap}.  Modern
      relaxed structures (MultiQueues, k-LSM) are written against CAS, so
      any competitor implemented here needs it. *)

  val fetch_and_add : int shared -> int -> int
  (** [fetch_and_add cell d] atomically adds [d] to the cell and returns
      its previous value (like [Atomic.fetch_and_add]).  Charged as one
      atomic read-modify-write step, like {!swap}: a counter moved by it
      costs one access where a [read]-then-{!cas} retry loop costs two or
      more.  The bounded façade's credit counters are its callers. *)

  type lock
  (** A fair (FIFO under the simulator) mutual-exclusion lock. *)

  val lock_create : ?name:string -> unit -> lock
  val acquire : lock -> unit
  val release : lock -> unit

  val try_acquire : lock -> bool
  (** Non-blocking acquire: takes the lock and returns [true] if it was
      free, returns [false] immediately (never parks) otherwise.  Costs
      one atomic read-modify-write on the lock word either way.  The
      primitive behind try-lock sharded structures such as the
      MultiQueue. *)

  val lock_stats : unit -> int * int
  (** [(acquisitions, try_failures)] granted/failed so far, summed over
      every lock of the runtime context the caller runs in: on the
      simulator the counters of the enclosing [Machine.run] (read free of
      simulated charge, for harness instrumentation); on the native
      runtime process-global monotonic counters.  Callers difference two
      readings to attribute lock traffic to a code region — that is how
      {!Queue_adapter} derives the common [lock_acquisitions] /
      [lock_try_failures] counters every instance reports. *)

  type cond
  (** A condition variable in the monitor sense, tied at creation to the
      {!lock} that guards the predicate it signals about.  On the
      simulator waiters park in FIFO order and wake deterministically;
      on the native runtime it is a [Condition.t]. *)

  val cond_create : ?name:string -> lock -> cond
  (** [cond_create lock] allocates a condition whose waiters must hold
      [lock].  [name] is used for tracing and deadlock diagnostics. *)

  val cond_wait : cond -> unit
  (** Atomically releases the associated lock and parks the caller until
      some other processor signals the condition; re-acquires the lock
      (queueing like any other acquirer) before returning.  The caller
      must hold the associated lock.  As with every condition variable,
      wake-ups are permissions to re-check, not proofs: callers must
      re-test their predicate in a loop. *)

  val cond_signal : cond -> unit
  (** Wakes the longest-parked waiter, if any.  The woken processor still
      re-acquires the lock before [cond_wait] returns.  Costs one shared
      write on the condition word. *)

  val get_time : unit -> int
  (** Reads the shared clock.  Timestamps are totally ordered consistently
      with real time: if operation A's [get_time] happens before operation
      B's, A observes a strictly smaller value. *)

  val work : int -> unit
  (** [work n] performs [n] cycles of processor-local computation (the
      benchmark's "local work" between queue operations). *)

  val self : unit -> int
  (** Identifier of the calling (virtual) processor.  Ids are dense: no
      two live processors share one, and every id is below the number of
      processors alive at once.  The simulator numbers its processors
      [0 .. n-1]; natively a domain takes the smallest free id on its
      first call and gives it back when it exits, so a later domain may
      reuse it.  Per-processor state ({!Per_proc}) relies on this. *)

  val yield : unit -> unit
  (** Politeness hint while spinning (e.g. inside the combining funnel). *)
end
