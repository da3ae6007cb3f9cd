(** Lock-free SkipQueue: a skiplist-based concurrent priority queue whose
    hot paths are CAS-only (no locks taken, none waited on).

    The structure the paper's SkipQueue would become with the field's
    later lock-free machinery (Sundell–Tsigas; Lindén–Jonsson): Insert
    CAS-links bottom-up, Delete-min logically deletes by CAS-marking the
    victim's bottom next link — that CAS is the linearization point — and
    physical deletion is batched: once a walk from the head — a
    delete-min's claim or an insert's search — has hopped
    [restructure_threshold] marked nodes, the whole marked prefix is
    unlinked with one CAS on the head and retired through the epoch
    reclamation + node pool of DESIGN.md S17.  Spec: linearizable
    ([Queue_adapter] registers it as such), multiset semantics (duplicate
    keys kept).  Design and proofs: DESIGN.md S19. *)

module Make (R : Repro_runtime.Runtime_intf.S) (K : Repro_pqueue.Key.ORDERED) : sig
  module SL : module type of Lockfree_skiplist.Make (R) (K)

  type 'v t

  val create :
    ?p:float ->
    ?max_level:int ->
    ?seed:int64 ->
    ?restructure_threshold:int ->
    ?collect_every:int ->
    ?broken_premature_free:bool ->
    unit ->
    'v t
  (** [restructure_threshold] (default 16): a delete-min walk that hops
      this many logically deleted nodes, or an insert whose search is
      still at the head after hopping this many, triggers the batched
      physical unlink.  [collect_every] (default 4): reclamation pass cadence, in
      successful restructures.  [broken_premature_free] wires in the
      checker-validation mutant that frees at unlink time without waiting
      for epoch quiescence — never set it outside {!Broken}. *)

  val insert : 'v t -> K.t -> 'v -> unit
  val delete_min : 'v t -> (K.t * 'v) option

  val peek_min : 'v t -> (K.t * 'v) option
  val size : 'v t -> int
  val to_list : 'v t -> (K.t * 'v) list
  val check_invariants : 'v t -> (unit, string) result

  type stats = {
    cas_failures : int;  (** claim/link CAS attempts lost to a race *)
    marked_hops : int;  (** bottom-level tombstones stepped over, every walk *)
    insert_marked_hops : int;  (** the share of [marked_hops] stepped over by inserts *)
    restructures : int;  (** batched prefix unlinks performed *)
    restructure_skips : int;  (** passes ceded to the current holder *)
    unlinked : int;  (** nodes physically removed *)
  }

  val stats : 'v t -> stats

  type pool_stats = SL.pool_stats = { returned : int; recycled : int; pooled : int }

  val pool_stats : 'v t -> pool_stats
  val reclaim_stats : 'v t -> SL.Reclaim.stats

  val collect_garbage : 'v t -> int
  (** Final reclamation sweep for quiescent callers (tests, drains). *)

  val marked_prefix_len : 'v t -> int
  (** Bottom-level logically-deleted prefix still physically linked
      (instrumentation for the threshold tests). *)

  val restructure_threshold : 'v t -> int

  val skiplist : 'v t -> 'v SL.t
  (** The underlying list, for white-box tests. *)
end
