(** Lock-free skiplist core (Sundell–Tsigas / Lindén–Jonsson style): the
    structural layer under {!Skipqueue_lf}.

    Where the classical algorithms steal the low bit of the successor
    pointer to make (successor, deleted?) a single atomic word, each next
    cell here holds an immutable [link] record and every state change
    installs a fresh record — CAS by physical equality then has exactly
    the packed word's atomicity, and a superseded expected record can
    never spuriously match (no ABA without tag bits).

    Delete-min's logical deletion is a CAS that flips [marked] in the
    victim's own bottom link; marked nodes stay linked as tombstones.
    {!Make.try_restructure} unlinks the head-adjacent run of them (the
    marked prefix) with one CAS on the head and retires the nodes through
    epoch reclamation and the node pool, so concurrent traversers never
    touch freed memory.  An insert that would link in front of that run
    buries it behind a live node, so {!Make.insert} restructures first
    when the run is long.
    See DESIGN.md S19. *)

module Make (R : Repro_runtime.Runtime_intf.S) (K : Repro_pqueue.Key.ORDERED) : sig
  module Reclaim : module type of Reclamation.Make (R)

  type bound = Bound.Make(K).t = Bottom | Key of K.t | Top

  val bound_compare : bound -> bound -> int

  type 'v link = { succ : 'v node; marked : bool }
  (** Immutable marked reference: the atomic unit of every next cell.
      [marked = true] in a node's bottom link means the node is logically
      deleted; upper-level links always carry [marked = false]. *)

  and 'v node = {
    key : bound R.shared;
    value : 'v option R.shared;
    level : int;
    next : 'v link R.shared array;
    mutable poisoned : bool;
  }

  type 'v t

  val create :
    ?p:float ->
    ?max_level:int ->
    ?seed:int64 ->
    ?collect_every:int ->
    ?unsafe_free:bool ->
    unit ->
    'v t
  (** [collect_every] runs a reclamation pass every that-many successful
      restructures.  [unsafe_free] is the premature-free mutant switch: it
      bypasses the epoch and clobbers nodes at unlink time (checker
      validation only — see {!Broken}). *)

  (** {1 Epoch guard} — wrap every operation in [enter]/[exit]. *)

  val enter : 'v t -> unit
  val exit : 'v t -> unit

  (** {1 Operations} *)

  val insert : restructure_threshold:int -> 'v t -> K.t -> 'v -> unit
  (** CAS-links bottom-up; linearizes at the successful bottom-level CAS.
      Duplicate keys are kept (multiset); a new node lands before existing
      equal keys.  Only LIVE nodes are kept in key order: the new node goes
      right after the last live smaller-keyed node, in front of any
      tombstone run that follows it (a marked node's key is dead).  If
      that places it right after the head, in front of at least
      [restructure_threshold] tombstones, it first calls
      {!try_restructure} and, if a pass ran, searches again. *)

  type 'v claim_result =
    | Claimed of 'v node * int  (** node, marked nodes hopped en route *)
    | Empty of int

  val try_claim : 'v t -> 'v claim_result
  (** Logical delete-min: walks the bottom level hopping marked nodes and
      claims the first live node by CAS-marking its bottom link — the
      successful CAS is the linearization point ([Empty] linearizes at the
      read of the tail-reaching link). *)

  val claimed_binding : 'v t -> 'v node -> K.t * 'v
  (** Reads a claimed node's key/value.  Safe between the claim and [exit];
      raises (loudly, for the checker) if the node was reclaimed in flight,
      which only the [unsafe_free] mutant can cause. *)

  val try_restructure : 'v t -> bool
  (** Batched physical deletion: unlink the bottom-level marked prefix with
      one CAS on the head, purge the upper head levels, retire the nodes.
      Serialized by an internal try-lock that is never waited on — returns
      [false] immediately (and counts a skip) if another processor holds
      it.  Runs a bounded reclamation pass every [collect_every] wins. *)

  val collect_garbage : 'v t -> int
  (** One reclamation pass over the processors seen so far (for quiescent
      callers: tests, drains). *)

  (** {1 Read-only views} (quiescent or best-effort) *)

  val peek_min : 'v t -> (K.t * 'v) option
  val size : 'v t -> int
  val to_list : 'v t -> (K.t * 'v) list

  val marked_prefix_len : 'v t -> int
  (** Length of the logically deleted prefix still physically linked at the
      bottom level (instrumentation for the batching-threshold tests). *)

  (** {1 Introspection} *)

  type op_stats = {
    cas_failures : int;
    marked_hops : int;  (** bottom-level tombstones stepped over, every walk *)
    insert_marked_hops : int;  (** the share of [marked_hops] stepped over by inserts *)
    restructures : int;
    restructure_skips : int;
    unlinked : int;
  }

  val stats : 'v t -> op_stats

  type pool_stats = Node_pool.stats = { returned : int; recycled : int; pooled : int }

  val pool_stats : 'v t -> pool_stats
  val reclaim_stats : 'v t -> Reclaim.stats

  val check_invariants : 'v t -> (unit, string) result
  (** Quiescent structural check: live bottom keys non-descending
      (duplicates allowed) with no poisoned node reachable, and every node
      on an upper head chain present in the bottom chain.  Reachable
      {e marked} nodes are legal anywhere — physical deletion is batched,
      and tombstone keys do not participate in the ordering. *)
end
