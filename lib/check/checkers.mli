(** Correctness checkers over recorded queue histories.

    Each checker consumes a {!history} — the events recorded by
    {!History.wrap} plus the post-quiescence drain — and returns a
    {!verdict}.  All checks are sound (a [Fail] is a real violation of the
    stated property); {!strict} is also complete (every history with no
    Definition-1 serialization fails it), and so is {!ranked}'s per-delete
    bound; the others are conservative per-delete or per-period
    conditions.
    {!for_spec} selects the suite an implementation's declared
    {!Repro_workload.Queue_adapter.spec} is held to. *)

module O = Repro_pqueue.Oracle

type history = {
  impl : string;  (** registry name of the implementation under test *)
  dedups : bool;
      (** {!Repro_workload.Queue_adapter.impl.dedups}.  No checker reads
          it; it stays because pqbench builds this record. *)
  spec : Repro_workload.Queue_adapter.spec;
  seed : int64;  (** the schedule seed, for replay *)
  events : O.event list;  (** in response (completion) order *)
  drained : (int * int) list;
      (** elements left in the structure after quiescence, in pop order *)
  capacity : int option;
      (** the bounded façade's capacity, when the run went through one —
          enables {!capacity_bound}.  Must match the capacity the façade
          was actually created with. *)
  spans : History.span list;
      (** {!History.park_spans}: operations that parked, with their
          park/wake clocks — enables {!blocking_wakeups} *)
}

type verdict =
  | Pass
  | Fail of string  (** a definite violation of the checked property *)
  | Skip of string  (** the check does not apply to this history *)

val well_formed : history -> verdict
(** {!O.check_well_formed}: sane timestamps, per-processor sequentiality,
    unique insert ids, no element deleted twice. *)

val conservation : history -> verdict
(** {!O.check_conservation}: inserted = deleted + drained as id multisets,
    and the drain pops in ascending key order.  For [Rank_bounded _]
    implementations the drain is sorted first — their quiescent pops
    sample shard minima, so only the multiset half of the condition is
    part of the contract. *)

val quiescent : history -> verdict
(** Quiescent consistency, conservatively and transit-tolerantly: a
    Delete-min must respect elements fully inserted before the start of
    its busy period (the maximal run of pairwise-overlapping operations
    containing it) unless a delete not separated from it by a quiescent
    point removed them.  Deletes that overlap another in-flight delete are
    exempt — the contract of structures like the Hunt heap, whose
    delete-min carries a detached element outside any slot, invisible to
    concurrent operations, until it completes. *)

val strict : history -> verdict
(** {!O.check_strict}: Definition 1, decided by a greedy serialization of
    the Delete-mins that is complete — it fails exactly the histories with
    no Definition-1 serialization, naming the delete that cannot come
    next.  It is also the §5.4 contract of [Relaxed] implementations: a
    smaller element inserted concurrently is Definition 1's optional
    overlapping insert. *)

val ranked : Repro_workload.Queue_adapter.ceiling -> history -> verdict
(** {!O.check_ranked} at [max_rank]: a serialization exists in which no
    Delete-min skips more than [max_rank] certainly-present smaller
    elements — {!strict} is the [max_rank = 0] case — and the mean of the
    skipped counts along the one the greedy found is at most
    [mean_rank]. *)

val blocking_wakeups : history -> verdict
(** Blocking-aware sanity over {!history.spans}: every parked operation's
    park/wake clocks nest inside its invocation span; a delete that parked
    (a [delete_min_wait]) returned [Some] element whose insert was invoked
    before the delete responded.  ("Inserted before the wake" would be
    unsound: a smaller element may land between the wake and the backend
    pop and legitimately be the one returned.)  [Skip] when nothing
    parked. *)

val capacity_bound : history -> verdict
(** For runs through a bounded façade ([capacity = Some c]): at every
    insert response, the provable occupancy lower bound — inserts
    responded minus deletes responded minus deletes in flight — must not
    exceed [c].  Conservative (endpoint timestamps cannot give exact
    occupancy), hence sound.  [Skip] when no capacity was in force. *)

val for_spec : Repro_workload.Queue_adapter.spec -> (string * (history -> verdict)) list
(** The named suite a given correctness contract is held to.
    [Linearizable] and [Relaxed] share one suite — well-formed,
    conservation and {!strict}; a pass implies {!quiescent} and, on a
    sequential history, the sequential specification.  [Quiescent c] runs
    {!quiescent} and [ranked c], [Rank_bounded c] just [ranked c]. *)

val check_all : history -> (string * verdict) list
(** [for_spec h.spec] applied to [h], plus the blocking suite
    ({!blocking_wakeups}, {!capacity_bound}) whenever the history carries
    a capacity or any parked operation. *)

val failures : (string * verdict) list -> (string * string) list
(** Just the [Fail]s, as [(check-name, message)]. *)
