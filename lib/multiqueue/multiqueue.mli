(** Relaxed MultiQueue priority queue (Rihani, Sanders & Dementiev;
    Williams, Sanders & Dementiev, "Engineering MultiQueues").

    The modern endpoint of the paper's §5.2 relaxation idea: instead of one
    shared structure, keep two sequential heaps (shards) per processor,
    each behind a try-lock.  Insert pushes into a (sticky) random shard;
    Delete-min reads the cached minima of 2 random shards and pops from
    the better one.
    No operation ever spins on a contended shard — a failed try-lock simply
    redirects to another shard — so throughput scales with processors at
    the cost of a bounded-in-expectation {e rank error}: the popped key is
    not always the global minimum, but with two-choice its expected rank
    stays O(shards).

    Like every structure in this repository, the implementation is a
    functor over {!Repro_runtime.Runtime_intf.S} and runs unchanged on the
    simulator and on native domains.  Shared state (the per-shard cached
    minimum and the try-locks) lives in runtime cells, so the simulator
    charges coherence and hot-spot costs for it; the shard heaps themselves
    are processor-private while locked, and their walk is billed through
    [R.charge] at 11 cycles per heap level (about one local fetch), which
    the simulator charges and the native runtime ignores. *)

module Make (R : Repro_runtime.Runtime_intf.S) : sig
  type 'v t

  val create : ?seed:int64 -> procs:int -> unit -> 'v t
  (** [create ~procs ()] builds the MultiQueue of "Engineering
      MultiQueues" for [procs] (>= 1) processors: [2 * procs] sequential
      heaps, Delete-mins that compare the cached minima of 2 sampled
      shards, and sampled shards reused for 8 consecutive operations
      before they are re-rolled (a failed try-lock re-rolls at once).  At
      [procs = 1] both shards are compared, so a sequential execution is
      exact.  [seed] derives the per-processor sampling streams
      deterministically. *)

  val insert : 'v t -> int -> 'v -> unit
  (** Pushes into the processor's sticky shard, redirecting to a fresh
      random shard whenever the try-lock fails.  Never blocks.  Duplicate
      keys are allowed (the shard heaps keep duplicates). *)

  val delete_min : 'v t -> (int * 'v) option
  (** Pops the minimum of the better of 2 sampled shards.  Returns
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
