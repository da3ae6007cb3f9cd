(** The coalescing SkipQueue (DESIGN.md §S21): the paper's locked skiplist
    with duplicate-key coalescing nodes and a bit-packed single-word lock.

    A node holds a bounded multiset of same-key elements — an append-only
    value slab plus ticket accounting — and all of its locking state lives
    in one packed word ({!Co_lockword}): low [max_level] bits are the
    per-level pointer locks of Fig. 9, the next bit the full-node
    insert/delete lock of Figs. 10-11, the high bits two monotone tickets
    ([born | claimed]) whose difference is the live count.  Acquisition
    is a CAS retry loop on that single shared cell and release one
    fetch-and-add of the negated bit, so every lock operation for a node
    charges the same memory line in the simulator — while a delete-min's
    claim is a single lock-free CAS
    advancing the claimed ticket, which also names the claimed element's
    slab position.

    Multiset semantics: an insert of a present key is admitted as a
    distinct instance, coalesced into a live equal-key node while the
    node's capacity allows and linked as a fresh node {e after} every
    equal-key node otherwise.  Delete-min decrements the count and
    physically unlinks only at zero, through the original SWAP-marking.
    Nodes are never reused, so the lock-free claim path needs no
    epoch protection.  Both modes of the base queue are supported and
    keep their contracts: [Strict] stays Definition-1 linearizable (joins
    never touch a node's completion stamp; an element joined into an
    older node shares its key, so no smaller settled element is ever
    skipped), [Relaxed] stays §5.4-relaxed. *)

module Make (R : Repro_runtime.Runtime_intf.S) : sig
  type 'v t

  type mode = Strict | Relaxed

  val create :
    ?mode:mode -> ?p:float -> ?max_level:int -> ?seed:int64 -> ?capacity:int -> unit -> 'v t
  (** [p], [max_level] and [seed] as in {!Skipqueue.Make}.  [capacity]
      (default 4) bounds a node's multiset; it must not exceed
      {!Co_lockword.count_capacity} for the chosen [max_level]. *)

  val insert : 'v t -> int -> 'v -> [ `Inserted | `Updated ]
  (** Joins the first live equal-key node when possible; links a fresh
      node after every equal-key node otherwise.  Always [`Inserted]: the
      type is {!Elimination.BACKING}'s. *)

  val delete_min : 'v t -> (int * 'v) option
  (** Claims one element of the first eligible node with a single
      lock-free ticket CAS (FIFO within a key); unlinks the node only on
      the claim that exhausts it. *)

  val size : 'v t -> int
  (** Number of live {e elements} (counts, not nodes).  Quiescent use. *)

  val to_list : 'v t -> (int * 'v) list
  (** Ascending bindings; within one key, insertion (delivery) order.
      Quiescent use only. *)

  val check_invariants : 'v t -> (unit, string) result
  (** Quiescent structural check: non-decreasing bottom keys; every
      reachable node live, unmarked, count within capacity and equal to
      its slab length; no lock bit held; upper-level nodes present in the
      bottom list. *)

  (** {2 Front-end hooks} — same contract as {!Skipqueue.Make}; a batch
      may be satisfied by several elements of one coalesced node in a
      single hunt pass. *)

  val first_bound : 'v t -> [ `Empty | `Min_at_most of int ]

  type 'v batch

  val hunt_batch : 'v t -> want:int -> 'v batch
  val batch_claims : 'v batch -> (int * 'v) list
  val finish_batch : 'v t -> 'v batch -> unit

  (** {2 Instrumentation} *)

  val stats : 'v t -> (string * float) list
  (** Cumulative counters since creation, in this order: [hunt_steps]
      (bottom-level claim attempts by delete-mins), [swap_losses] (dead
      nodes stepped over plus claim CASes lost to a concurrent commit on
      the same word), [stale_skips] (nodes skipped for a too-young
      timestamp), [hunt_passes] (hunt invocations, one per batch),
      [coalesced_inserts] (multiset inserts absorbed into an existing
      node's slab) and [node_splits] (fresh equal-key links forced by a
      live node at capacity). *)
end
