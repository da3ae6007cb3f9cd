(** History checker for concurrent priority-queue executions.

    Stress tests record one {!event} per completed operation, with
    invocation and response timestamps taken from the runtime clock, and
    this module validates the run:

    - {!check_conservation}: no element is lost, duplicated, or
      invented — (initial + inserted) = (deleted + drained-at-end), as
      multisets of unique element ids.
    - {!check_strict}: the paper's Definition 1, decided exactly —
      some order of the Delete-mins that respects their real-time order
      lets each one return a minimal element of those certainly present
      (or EMPTY when none is), given the elements the deletes before it
      consumed.  At the interval granularity the timestamps give, it is
      also the relaxed SkipQueue's §5.4 condition ([min (I - D)] or a
      smaller element inserted concurrently): the concurrent insert is
      Definition 1's optional overlapping one.
    - {!check_ranked}: the same greedy with each delete allowed to
      skip up to [max_rank] smaller certainly-present elements, the
      per-delete rank bound of the k-LSM and the MultiQueue;
      {!check_strict} is its [max_rank = 0] case.

    All checks are sound (a reported violation is a real violation);
    {!check_ranked} is also complete at the interval granularity the
    timestamps give. *)

type op =
  | Insert of { key : int; id : int }
      (** [id] uniquely identifies the element across the whole run
          (the paper assumes unique values w.l.o.g.). *)
  | Delete_min of { result : (int * int) option }
      (** [None] means the operation returned EMPTY. *)

type event = { proc : int; op : op; invoked : int; responded : int }

val check_conservation :
  initial:(int * int) list ->
  drained:(int * int) list ->
  event list ->
  (unit, string) result
(** [drained] is everything removed from the structure after all
    processors stopped (must also come out in ascending key order). *)

val check_ranked : max_rank:int -> event list -> (int list, string) result
(** Searches for a serialization of the Delete-mins, consistent with
    their real-time order (a delete that responded strictly before
    another was invoked comes first), in which every delete returns an
    element [x] that no earlier delete took, whose insert was invoked
    before the delete responded, and whose key is <= every element
    fully inserted (responded) before the delete's invocation and not
    yet consumed, save at most [max_rank] of them — or returns EMPTY
    when at most [max_rank] such elements exist.  An insert that
    overlaps the delete is optional: its element may or may not be
    seen.  The search is a greedy serialization, polynomial and
    complete at every [max_rank] (DESIGN.md §6); the error names the
    delete that cannot be serialized next and why.  [Ok ranks] lists,
    in serialization order, how many smaller such elements each
    element-returning delete skipped.  Raises [Invalid_argument] when
    [max_rank < 0]. *)

val check_strict : event list -> (unit, string) result
(** [check_ranked ~max_rank:0]: the paper's Definition 1. *)

val check_well_formed : event list -> (unit, string) result
(** Per-event sanity: [invoked <= responded]; per-processor operations do
    not overlap; insert ids unique; no element deleted twice. *)
