(** The concurrent binary heap of Hunt, Michael, Parthasarathy & Scott
    (Information Processing Letters 60(3), 1996) — the paper's main
    baseline ("Heap" in §5).

    Structure: a pre-allocated array of slots, each with its own lock and a
    {e tag} that is either [Empty], [Available], or [Moving pid] for an
    item still being inserted by processor [pid].  A single {e heap lock}
    protects only the size variable and the assignment of a slot to each
    operation; it is held for a constant-time critical section — yet it is
    the serialization point whose contention limits the structure's
    scalability (the effect the paper measures).

    - Insertions take the heap lock, claim the next slot in {e bit-reversed
      order} (consecutive insertions walk disjoint leaf-to-root paths),
      release the heap lock, then bubble the item {e bottom-up} with
      hand-over-hand (parent, child) locking.  A concurrent deletion may
      swap an in-transit item upwards; the owner detects the tag change and
      {e chases} its item towards the root.
    - Deletions take the heap lock, detach the last slot, release the heap
      lock, replace the root with the detached item and sift it {e
      top-down} with hand-over-hand locking.

    All lock acquisitions follow tree order (parent before child), so
    insertions and deletions cannot deadlock. *)

module Make (R : Repro_runtime.Runtime_intf.S) : sig
  type 'v t

  exception Full

  val create : ?capacity:int -> unit -> 'v t
  (** [capacity] (default 65536) is the fixed slot count — the paper's
      heaps are array-based and pre-allocated (a disadvantage §1.2 lists
      explicitly). *)

  val insert : 'v t -> int -> 'v -> unit
  (** Raises {!Full} when all slots are taken.  Duplicate keys allowed. *)

  val delete_min : 'v t -> (int * 'v) option

  val size : 'v t -> int
  (** Current element count (reads the shared size variable). *)

  val to_sorted_list : 'v t -> (int * 'v) list
  (** Drains the heap (destructive).  Quiescent use only. *)

  val check_invariants : 'v t -> (unit, string) result
  (** Quiescent check: every slot within [size] is [Available] and
      satisfies heap order with its parent; every slot beyond is
      [Empty]. *)
end
