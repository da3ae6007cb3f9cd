(** The coalescing SkipQueue (DESIGN.md §S21): the paper's locked skiplist
    with duplicate-key coalescing nodes and a bit-packed single-word lock.

    A node holds a bounded multiset of same-key elements — an append-only
    value slab plus ticket accounting — and all of its locking state lives
    in one packed word ({!Co_lockword}): low [max_level] bits are the
    per-level pointer locks of Fig. 9, the next bit the full-node
    insert/delete lock of Figs. 10-11, the high bits two monotone tickets
    ([born | claimed]) whose difference is the live count.  Acquisition
    and release are CAS retry loops on that single shared cell, so every
    lock operation for a node charges the same memory line in the
    simulator — while a delete-min's claim is a single lock-free CAS
    advancing the claimed ticket, which also names the claimed element's
    slab position.

    Semantics per the PR 1 [dedups] flag: with [~dedups:true] an insert of
    a present key updates the element in place (the base SkipQueue's
    contract); with the default multiset semantics it is admitted as a
    distinct instance, coalesced into a live equal-key node while the
    node's capacity allows and linked as a fresh node {e after} every
    equal-key node otherwise.  Delete-min decrements the count and
    physically unlinks only at zero, through the original SWAP-marking and
    the epoch-reclamation / node-pool path.  Both modes of the base queue
    are supported and keep their contracts: [Strict] stays Definition-1
    linearizable (joins never touch a node's completion stamp; an element
    joined into an older node shares its key, so no smaller settled
    element is ever skipped), [Relaxed] stays §5.4-relaxed. *)

module Make (R : Repro_runtime.Runtime_intf.S) (K : Repro_pqueue.Key.ORDERED) : sig
  type 'v t

  type mode = Strict | Relaxed

  module Reclaim : module type of Reclamation.Make (R)

  type key = K.t
  (** Alias making the module a valid {!Elimination.BACKING}. *)

  type reclaim = Reclaim.t
  (** Likewise. *)

  val create :
    ?mode:mode ->
    ?p:float ->
    ?max_level:int ->
    ?seed:int64 ->
    ?reclamation:Reclaim.t ->
    ?capacity:int ->
    ?dedups:bool ->
    unit ->
    'v t
  (** [p], [max_level], [seed] and [reclamation] as in {!Skipqueue.Make}.
      [capacity] (default 4) bounds a node's multiset; it must not exceed
      {!Co_lockword.count_capacity} for the chosen [max_level].  [dedups]
      (default [false]) selects update-in-place over multiset admission. *)

  val insert : 'v t -> K.t -> 'v -> [ `Inserted | `Updated ]
  (** Joins the first live equal-key node when possible ([`Updated] under
      [dedups], [`Inserted] for a multiset admission); links a fresh node
      after every equal-key node otherwise. *)

  val delete_min : 'v t -> (K.t * 'v) option
  (** Claims one element of the first eligible node with a single
      lock-free ticket CAS (FIFO within a key); unlinks the node only on
      the claim that exhausts it. *)

  val size : 'v t -> int
  (** Number of live {e elements} (counts, not nodes).  Quiescent use. *)

  val to_list : 'v t -> (K.t * 'v) list
  (** Ascending bindings; within one key, insertion (delivery) order.
      Quiescent use only. *)

  val check_invariants : 'v t -> (unit, string) result
  (** Quiescent structural check: non-decreasing bottom keys; every
      reachable node live, unmarked, count within capacity and equal to
      its slab length; no lock bit held; upper-level nodes present in the
      bottom list.  Dedup mode additionally pins every count to 1. *)

  (** {2 Front-end hooks} — same contract as {!Skipqueue.Make}; a batch
      may be satisfied by several elements of one coalesced node in a
      single hunt pass. *)

  val first_bound : 'v t -> [ `Empty | `Min_at_most of K.t ]

  type 'v batch

  val hunt_batch : 'v t -> want:int -> 'v batch
  val batch_claims : 'v batch -> (K.t * 'v) list
  val finish_batch : 'v t -> 'v batch -> unit

  (** {2 Instrumentation} *)

  type op_stats = {
    hunt_steps : int;  (** bottom-level claim attempts by delete-mins *)
    swap_losses : int;
        (** dead nodes stepped over plus claim CASes lost to a
            concurrent commit on the same word *)
    stale_skips : int;  (** nodes skipped for a too-young timestamp *)
    hunt_passes : int;  (** hunt invocations (one per batch) *)
  }

  val stats : 'v t -> op_stats

  type co_stats = {
    coalesced_inserts : int;
        (** multiset inserts absorbed into an existing node's slab *)
    node_splits : int;
        (** fresh equal-key links forced by a live node at capacity *)
  }

  val co_stats : 'v t -> co_stats

  type pool_stats = Node_pool.stats = { returned : int; recycled : int; pooled : int }

  val pool_stats : 'v t -> pool_stats
  (** As in {!Skipqueue.Make}: non-zero only with [~reclamation]; recycled
      nodes (value slab included) are re-registered through [R.refresh] in
      fresh-allocation order, so pooling never changes simulated cycle
      counts. *)
end
