(** Relaxed MultiQueue priority queue (Rihani, Sanders & Dementiev;
    Williams, Sanders & Dementiev, "Engineering MultiQueues").

    The modern endpoint of the paper's §5.2 relaxation idea: instead of one
    shared structure, keep [shards] sequential heaps, each behind a
    try-lock.  Insert pushes into a (sticky) random shard; Delete-min reads
    the cached minima of [choice] random shards and pops from the best one.
    No operation ever spins on a contended shard — a failed try-lock simply
    redirects to another shard — so throughput scales with processors at
    the cost of a bounded-in-expectation {e rank error}: the popped key is
    not always the global minimum, but with c-way choice its expected rank
    stays O(shards).

    Like every structure in this repository, the implementation is a
    functor over {!Repro_runtime.Runtime_intf.S} and runs unchanged on the
    simulator and on native domains.  Shared state (the per-shard cached
    minimum and the try-locks) lives in runtime cells, so the simulator
    charges coherence and hot-spot costs for it; the shard heaps themselves
    are processor-private while locked, and their walk is charged as local
    work ([heap_cycles_per_level] cycles per heap level — pass [0] on the
    native backend, where the real heap operations already cost real
    time). *)

module Make (R : Repro_runtime.Runtime_intf.S) : sig
  type 'v t

  val create :
    ?shard_factor:int ->
    ?shards:int ->
    ?choice:int ->
    ?stickiness:int ->
    ?heap_cycles_per_level:int ->
    ?seed:int64 ->
    procs:int ->
    unit ->
    'v t
  (** [create ~procs ()] builds a MultiQueue with
      [shards = shard_factor * procs] sequential heaps (explicit [?shards]
      overrides; at least 1).

      - [shard_factor] (default 2): the classical "c = 2 queues per
        thread" configuration.
      - [choice] (default 2): how many shard minima a Delete-min compares;
        clamped to [1 .. shards].  [choice = shards] degenerates to an
        exact (but contended) queue.
      - [stickiness] (default 8): how many consecutive operations a
        processor reuses its sampled shards before re-rolling — the
        locality optimization of "Engineering MultiQueues".  A failed
        try-lock re-rolls immediately.
      - [heap_cycles_per_level] (default 11, about one local fetch): local
        work charged per heap level while holding a shard lock, modelling
        the sequential heap walk the simulator cannot observe.  Use [0]
        under the native runtime.
      - [seed]: per-processor sampling streams are derived from it
        deterministically. *)

  val insert : 'v t -> int -> 'v -> unit
  (** Pushes into the processor's sticky shard, redirecting to a fresh
      random shard whenever the try-lock fails.  Never blocks.  Duplicate
      keys are allowed (the shard heaps keep duplicates). *)

  val delete_min : 'v t -> (int * 'v) option
  (** Pops the minimum of the best of [choice] sampled shards.  Returns
      [None] only after a full (blocking, shard-at-a-time) sweep found
      every shard empty; concurrent inserts may of course land just after
      their shard was swept — the usual relaxed-emptiness caveat. *)

  val length : 'v t -> int
  (** Sum of shard sizes, read without locks — exact only at
      quiescence. *)

  val stats : 'v t -> (string * float) list
  (** The gauge [shards] (the shard count), then cumulative counters, in
      this order: [lock_failures] (try-locks that lost and redirected),
      [empty_pops] (locked a shard that had drained meanwhile),
      [full_sweeps] (Delete-mins that fell back to scanning all shards)
      and [resticks] (sticky shard sets re-rolled, on expiry or
      failure). *)
end
