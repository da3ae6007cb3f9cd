(** Elimination–combining front end for the {!Skipqueue}.

    Calciu, Mendes & Herlihy ("The Adaptive Priority Queue with Elimination
    and Combining") observe that a [delete_min] and an [insert] whose key
    is no larger than the queue's current minimum can {e rendezvous} in a
    small array and exchange the element directly, never touching the
    structure.  This module grafts that front end onto the paper's
    SkipQueue:

    - A [delete_min] first reads the key of the first bottom-level node
      ({!Skipqueue.Make.first_bound}) — a lower bound on every settled
      element — publishes a waiting record carrying that bound into a
      random slot of the elimination array, and polls it for a bounded
      window.
    - An [insert] peeks at one random slot; if a deleter is waiting there
      and the inserted key is strictly below its published bound {e and}
      strictly below a fresh bound the inserter reads itself, it hands
      the binding over with a single CAS and returns without touching
      the skiplist.  Strictness is forced by dedup semantics (the bound
      is the key of a settled node, and inserting a present key must
      update it in place, not hand a second copy to a deleter); the
      fresh read guards against a published bound going stale (an
      element smaller than the bound settling while the deleter waits).
    - A deleter that times out (or that finds its chosen slot taken)
      withdraws and goes to the structure directly — but first it {e
      combines}: it reserves every waiter it can see (CAS [Pending ->
      Reserved]), then claims [1 + reserved] minima in one shared
      bottom-level hunt ({!Skipqueue.Make.hunt_batch}) and delivers the
      extras.  The contended head-of-list walk is paid once per batch
      instead of once per operation.

    Reserving {e before} hunting is what keeps the combining sound: every
    observation the hunt makes (each claimed minimum, and the
    tail-sentinel read that justifies an EMPTY hand-off) then falls inside
    the invocation window of every served waiter.  Serving waiters from a
    mid-walk position of an already-running hunt would not be sound — an
    element settled before a late waiter's invocation could lie behind
    the walk.

    The array is fixed-then-adaptive, and the adaptive state is {e
    per-processor} (as in the Hendler–Shavit–Yerushalmi elimination
    stack): each processor starts from the configured width and window
    and (unless [~adaptive:false]) doubles its width view on publish
    collisions — never narrowing it, which would collapse the array under
    load — while its polling window tracks the observed combiner service
    time, doubling on a timeout and stepping down on an instant
    rendezvous.  Thread-local adaptation keeps this state off the
    coherence fabric; a single shared width cell read by every operation
    would itself become the structure's hottest line.  Because the
    head-of-list read that establishes an elimination bound is likewise
    contended, only every [bound_every]-th publish observes a real bound;
    the rest carry a closed bound that a combiner may answer but an
    inserter may not.

    Correctness classification (DESIGN.md §S15): the front end preserves
    the underlying queue's contract — [Strict] stays Definition-1
    linearizable, [Relaxed] stays §5.4-relaxed.  An eliminated pair
    linearizes back-to-back at the inserter's fresh bound read, an
    instant inside both operations' windows at which the exchanged key
    is strictly smaller than every settled element; a combined answer is
    justified by a hunt that starts after every served waiter's
    invocation. *)

(** The queue interface the front end needs: the claim/batch half of the
    SkipQueue's Delete-min split (first_bound, hunt_batch / batch_claims /
    finish_batch) plus the plain entry points.  Construction is not part
    of it: {!Over.create} is handed the queue.  {!Skipqueue.Make} and
    {!Skipqueue_co.Make} both satisfy it directly.

    The front end's correctness argument needs one property beyond the
    signature: an eliminated key is strictly below the published {e and}
    freshly-read bound, i.e. strictly below every settled element — so a
    rendezvoused element can never be a duplicate of (and in particular
    can never {e coalesce} with) anything in the structure. *)
module type BACKING = sig
  type 'v t
  type 'v batch

  val insert : 'v t -> int -> 'v -> [ `Inserted | `Updated ]
  val first_bound : 'v t -> [ `Empty | `Min_at_most of int ]
  val hunt_batch : 'v t -> want:int -> 'v batch
  val batch_claims : 'v batch -> (int * 'v) list
  val finish_batch : 'v t -> 'v batch -> unit
  val size : 'v t -> int
  val to_list : 'v t -> (int * 'v) list
  val check_invariants : 'v t -> (unit, string) result
  val stats : 'v t -> (string * float) list
end

module Over (R : Repro_runtime.Runtime_intf.S) (Q : BACKING) : sig
  module SQ : BACKING with type 'v t = 'v Q.t and type 'v batch = 'v Q.batch

  type 'v t

  val create :
    ?seed:int64 ->
    ?slots:int ->
    ?width:int ->
    ?window:int ->
    ?max_window:int ->
    ?poll_cycles:int ->
    ?bound_every:int ->
    ?adaptive:bool ->
    queue:(unit -> 'v SQ.t) ->
    unit ->
    'v t
  (** [queue ()] builds the backing queue, once, after the elimination
      array's cells (simulated line ids follow allocation order).  [seed]
      (default [0x5EED]) seeds the per-processor slot-choice streams.
      Front-end knobs:
      - [slots] (default 64): capacity of the elimination array;
      - [width] (default 8): each processor's initial active prefix;
        adaptation stays in [\[1, slots\]] and only grows;
      - [window] (default 32): each processor's initial number of polls a
        published deleter makes before withdrawing; adaptation stays in
        [\[4, max_window\]] (default [max_window = 128]);
      - [poll_cycles] (default 16): local work between polls;
      - [bound_every] (default 8): a real elimination bound (one
        head-of-list read) is observed on one publish in [bound_every];
        the others publish a closed bound, reachable only by combiners.
        [1] observes on every publish;
      - [adaptive] (default [true]): when [false], width and window stay
        fixed at their initial values. *)

  val insert : 'v t -> int -> 'v -> [ `Inserted | `Updated ]
  (** One slot peeked; on a bound-respecting rendezvous (key strictly
      below both the published bound and a freshly observed one) the
      binding is handed to the waiting deleter and the call returns
      [`Inserted] — correct, since a key strictly below every settled
      element cannot be present.  Otherwise {!SQ.insert}. *)

  val delete_min : 'v t -> (int * 'v) option
  (** Publish-poll-withdraw as described above; the direct path combines.
      [None] is the paper's EMPTY. *)

  val size : 'v t -> int
  (** {!SQ.size} of the backing queue.  Quiescent use only. *)

  val to_list : 'v t -> (int * 'v) list
  (** {!SQ.to_list} of the backing queue.  Quiescent use only. *)

  val check_invariants : 'v t -> (unit, string) result
  (** Backing-queue structural check plus front-end quiescence: at rest
      every slot must be [Free]. *)

  (** {2 Instrumentation} *)

  val stats : 'v t -> (string * float) list
  (** Cumulative since creation; host-side counters, free on the
      simulator, approximate under native races.  The front end's, in
      this order: [eliminated] (insert/delete rendezvous, structure
      untouched), [fresh_refusals] (rendezvous attempts admitted by the
      published bound but refused by the inserter's own fresh bound read:
      stale or equal-key matches), [served] (deletes answered out of a
      combiner's batch), [handoff_empties] (waiters handed the batch's
      EMPTY), [batches] (combined hunts that served at least one waiter),
      [timeouts] (published deleters that withdrew), [collisions] (publish
      attempts that found the slot taken), [width] and [window] (the last
      adapted per-processor width view and poll budget); then {!SQ.stats}
      of the backing queue. *)
end

module Make (R : Repro_runtime.Runtime_intf.S) : module type of Over (R) (Skipqueue.Make (R))
(** The front end over the paper's locked SkipQueue. *)
