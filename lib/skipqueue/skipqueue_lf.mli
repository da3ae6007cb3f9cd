(** Lock-free SkipQueue: a skiplist-based concurrent priority queue whose
    hot paths are CAS-only (no locks taken, none waited on).

    The structure the paper's SkipQueue would become with the field's
    later lock-free machinery (Sundell–Tsigas; Lindén–Jonsson): Insert
    CAS-links bottom-up, Delete-min logically deletes by CAS-marking the
    victim's bottom next link — that CAS is the linearization point — and
    physical deletion is batched: once a walk from the head — a
    delete-min's claim or an insert's search — has hopped
    [restructure_threshold] marked nodes, the whole marked prefix is
    unlinked with one CAS on the head.  Every node is allocated fresh and
    never reused, so the GC, not an epoch, keeps an unlinked node alive
    for a traverser still standing on it.  Spec: linearizable
    ([Queue_adapter] registers it as such), multiset semantics (duplicate
    keys kept).

    Where the classical algorithms steal the low bit of the successor
    pointer to make (successor, deleted?) a single atomic word, each next
    cell here holds an immutable link record and every state change
    installs a fresh record — CAS by physical equality then has exactly
    the packed word's atomicity, and a superseded expected record can
    never spuriously match (no ABA without tag bits).  Marked nodes stay
    linked as tombstones until the batched unlink.  Design and proofs:
    DESIGN.md S19. *)

module Make (R : Repro_runtime.Runtime_intf.S) (K : Repro_pqueue.Key.ORDERED) : sig
  type 'v t

  val create :
    ?p:float ->
    ?max_level:int ->
    ?seed:int64 ->
    ?restructure_threshold:int ->
    unit ->
    'v t
  (** [restructure_threshold] (default 16): a delete-min walk that hops
      this many logically deleted nodes, or an insert whose search is
      still at the head after hopping this many, triggers the batched
      physical unlink.  Raises [Invalid_argument] when [p] is outside
      (0, 1) or [max_level] or [restructure_threshold] is below 1. *)

  val insert : 'v t -> K.t -> 'v -> unit
  (** CAS-links bottom-up; linearizes at the successful bottom-level CAS.
      Duplicate keys are kept (multiset); a new node lands before existing
      equal keys.  Only LIVE nodes are kept in key order: the new node goes
      right after the last live smaller-keyed node, in front of any
      tombstone run that follows it (a marked node's key is dead).  If
      that places it right after the head, in front of at least
      [restructure_threshold] tombstones, it first restructures and, if a
      pass ran, searches again.  A bottom CAS that loses re-reads the
      predecessor's record: if it is still live the walk resumes from it,
      otherwise the insert searches again from the head. *)

  val delete_min : 'v t -> (K.t * 'v) option
  (** Logical delete-min: walks the bottom level hopping marked nodes and
      claims the first live node by CAS-marking its bottom link — the
      successful CAS is the linearization point ([None], the paper's
      EMPTY, linearizes at the read of the tail-reaching link).  Then the
      batched unlink, once the walk hopped [restructure_threshold]
      tombstones. *)

  (** {1 Read-only views} (quiescent or best-effort) *)

  val peek_min : 'v t -> (K.t * 'v) option
  val size : 'v t -> int
  val to_list : 'v t -> (K.t * 'v) list

  val marked_prefix_len : 'v t -> int
  (** Length of the logically deleted prefix still physically linked at the
      bottom level (instrumentation for the batching-threshold tests). *)

  val check_invariants : 'v t -> (unit, string) result
  (** Quiescent structural check: live bottom keys non-descending
      (duplicates allowed) with no node visited twice, and every node on
      an upper head chain present in the bottom chain.  Reachable
      {e marked} nodes are legal anywhere — physical deletion is batched,
      and tombstone keys do not participate in the ordering. *)

  (** {1 Introspection} *)

  type stats = {
    cas_failures : int;  (** claim/link CAS attempts lost to a race *)
    marked_hops : int;  (** bottom-level tombstones stepped over, every walk *)
    insert_marked_hops : int;  (** the share of [marked_hops] stepped over by inserts *)
    restructures : int;  (** batched prefix unlinks performed *)
    restructure_skips : int;  (** passes ceded to the current holder *)
    unlinked : int;  (** nodes physically removed *)
    searches : int;
        (** top-down searches from the head: an insert's first, one per
            upper level it links, and one per bottom retry that found its
            predecessor dead or ran a restructure *)
    resumed_walks : int;
        (** bottom walks resumed from the live predecessor whose CAS lost *)
  }

  val stats : 'v t -> stats
end
