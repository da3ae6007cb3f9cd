(** The SkipQueue — the paper's contribution (Lotan & Shavit, §3, §6).

    A concurrent priority queue built from Pugh's lock-based concurrent
    skiplist: nodes carry one lock per level plus a whole-node lock;
    insertions link bottom-up one level at a time (Fig. 10); [delete_min]
    races down the bottom-level list claiming the first unmarked node with
    an atomic SWAP on its [deleted] flag, then removes it top-down with the
    ordinary skiplist delete, redirecting the victim's pointers {e
    backwards} so concurrent traversals survive (Fig. 11).

    Two modes ([§5.4]):
    - [Strict] — the default.  A completely inserted node is stamped with
      the shared clock; a deleting processor notes the time its search
      started and ignores younger nodes.  This yields the serialization of
      Definition 1: every Delete-min returns the minimum of the completely
      earlier inserts minus earlier deletes.
    - [Relaxed] — no timestamps; a Delete-min may also return an element
      inserted concurrently with it (possibly smaller than the strict
      answer, never larger).

    The functor is runtime-agnostic: instantiate with
    [Repro_sim.Sim_runtime] for simulated executions or
    [Repro_runtime.Native_runtime] for real domains. *)

module Make (R : Repro_runtime.Runtime_intf.S) : sig
  type 'v t

  type mode = Strict | Relaxed

  module Reclaim : module type of Reclamation.Make (R)

  val create :
    ?mode:mode ->
    ?p:float ->
    ?max_level:int ->
    ?seed:int64 ->
    ?reclamation:Reclaim.t ->
    unit ->
    'v t
  (** [p] (default 0.5) and [max_level] (default 20) parameterize node
      heights; the paper picks [max_level = log2 N] for an expected bound
      [N] on the queue size.  [seed] drives the per-processor level
      streams.  When [reclamation] is supplied, operations register
      themselves with it and physically deleted nodes are retired to it
      instead of being dropped on the floor; its finalizer poisons a node
      and leaves the memory to the GC.  Inserts always allocate afresh;
      no queue here recycles nodes. *)

  val insert : 'v t -> int -> 'v -> [ `Inserted | `Updated ]
  (** Fig. 10.  If the key is already present its value is overwritten
      in place ([`Updated]).  As in the paper's code, an update racing
      with a Delete-min that has already claimed the node is lost (the
      claimant returns the previous value); with the benchmarks' random
      priorities such collisions are vanishingly rare. *)

  val delete_min : 'v t -> (int * 'v) option
  (** Fig. 11.  [None] is the paper's EMPTY. *)

  val peek_min : 'v t -> (int * 'v) option
  (** First unmarked binding on the bottom level, without claiming it.
      Under concurrency the answer may be stale by the time it returns
      (peek-then-act is inherently racy); useful for monitoring. *)

  val delete : 'v t -> int -> 'v option
  (** Regular skiplist delete of a specific key (the SkipList operation the
      queue is built from).  Competes fairly with [delete_min]: both must
      win the SWAP on the node's [deleted] flag, so no element is removed
      twice. *)

  val find : 'v t -> int -> 'v option
  (** Lock-free read-only search; returns the value of an unmarked node
      with this key, if any. *)

  val size : 'v t -> int
  (** Number of unmarked nodes, counted by a bottom-level traversal.
      Accurate only at quiescence. *)

  val to_list : 'v t -> (int * 'v) list
  (** Ascending bindings of unmarked nodes.  Quiescent use only. *)

  val check_invariants : 'v t -> (unit, string) result
  (** Quiescent structural check: strictly ascending keys; every level-i
      list a sublist of the level below; no marked node still linked; no
      poisoned (reclaimed) node reachable. *)

  (** {2 Front-end hooks}

      A narrow internal API for queue front ends ({!Elimination}): observe
      a lower bound on the settled minimum, and claim several minima in
      one shared bottom-level hunt.  These are the paper's Delete-min
      split into its two halves (claim, then physical removal) and
      generalized from one victim to a batch; [delete_min] above is
      exactly [hunt_batch ~want:1] followed by [finish_batch]. *)

  val first_bound : 'v t -> [ `Empty | `Min_at_most of int ]
  (** Key of the first bottom-level node (marked or not) — a valid lower
      bound on every element that was completely inserted and unclaimed at
      the moment of the read: the bottom level is sorted, and any marked
      node's claim serializes before it.  [`Empty] means the list held
      nothing at all, not even in-flight claims.  Two shared reads, made
      inside the reclamation critical section (the first node may be
      retired concurrently). *)

  type 'v batch
  (** Claimed-but-not-yet-removed victims of one [hunt_batch]. *)

  val hunt_batch : 'v t -> want:int -> 'v batch
  (** One bottom-level pass (Fig. 11 lines 1-10) claiming up to [want]
      unmarked, old-enough nodes; stops early at the tail.  In [Strict]
      mode the eligibility timestamp is taken once, at the start of the
      pass.  Enters the reclamation critical section: the caller {e must}
      follow with [finish_batch], even on an empty batch. *)

  val batch_claims : 'v batch -> (int * 'v) list
  (** The claimed bindings, in claim (ascending-key) order. *)

  val finish_batch : 'v t -> 'v batch -> unit
  (** Physically remove every claimed node (Fig. 11 lines 15-37) and
      leave the reclamation critical section. *)

  (** {2 Instrumentation} *)

  val stats : 'v t -> (string * float) list
  (** Cumulative counters since creation, in this order: [hunt_steps]
      (bottom-level nodes examined by delete_mins), [swap_losses] (marked
      nodes stepped over: lost races), [stale_skips] (nodes skipped
      because their timestamp was too young) and [hunt_passes]
      (bottom-level hunt invocations: one per [delete_min], one per
      [hunt_batch] call however many claims it makes — which is how the
      tests pin that a batch, the elimination combiner's, shares a single
      pass).  Updated with plain (unmodelled) writes — costs nothing on
      the simulator; approximate under native races. *)
end
