(** Bounded/blocking façade over any int-keyed priority queue.

    Wraps a backend's [insert] / [try_delete_min] closures with a capacity
    bound and blocking entry points, in the classic counting-semaphore
    shape: room credits and item credits, one lock per end guarding its
    credits, and two condition variables, [not_full] and [not_empty],
    both tied to the pop lock (the bounded-queue design cited in
    ROADMAP.md).  A producer takes a room credit, parking while
    [capacity] are in use; producers queue on the push lock, so only its
    holder ever parks for room.  A consumer takes an item credit, parking
    while none is available.  The backend is called outside both locks.
    Signals are sent while holding the pop lock, after the credit they
    announce lands, and chained across parked consumers, which is what
    makes the façade lost-wakeup-free (DESIGN.md §18 gives the argument).
    It relies on [cond_wait] releasing the pop lock and parking in one
    atomic step; the fuzzer's lost-wakeup mutant runs this façade over a
    runtime whose [cond_wait] tears the two apart.

    Ordering contract: the locks order only credit-taking.  Producers'
    backend inserts run concurrently with each other, and so do
    consumers' backend pops, as the backend allows; the façade adds no
    ordering of its own — a [delete_min_wait] returns whatever the
    backend's [try_delete_min] returns, so the wrapped structure keeps
    its own [spec] (linearizable / quiescent / relaxed / rank-bounded)
    over the elements currently admitted. *)

module Make (R : Repro_runtime.Runtime_intf.S) : sig
  type t

  val create :
    capacity:int ->
    ?dedups:bool ->
    ?name:string ->
    insert:(int -> int -> unit) ->
    try_delete_min:(unit -> (int * int) option) ->
    unit ->
    t
  (** [create ~capacity ~insert ~try_delete_min ()] wraps the backend
      closures.  [dedups] must be [true] when the backend absorbs inserts
      of an already-present key as in-place updates (the SkipQueue
      family): the façade then treats a backend-empty answer that no
      concurrent take explains as a stale item credit and burns it,
      freeing its room, instead of retrying.  [name] prefixes the internal lock/condition names
      ([name.push], [name.pop], [name.not_full], [name.not_empty]) for
      traces and deadlock diagnostics.  Raises [Invalid_argument] if
      [capacity < 1]. *)

  val capacity : t -> int

  val size : t -> int
  (** Item credits (one shared read): inserts whose element is in the
      backend and that no consumer has yet claimed.  Between operations of
      a quiescent moment it equals the number of admitted-but-not-removed
      elements.  While inserts are in flight a non-blocking take can
      overdraw it below zero, by at most the in-flight inserts plus the
      consumers whose pops are outstanding; it settles as their credits
      land.  A take also reads one below the true count for an instant:
      it takes its credit with a speculative decrement, undone when there
      was none. *)

  val insert_wait : t -> int -> int -> unit
  (** Blocking insert: takes the push lock and, while [capacity]
      elements are admitted, parks on [not_full] holding it, then inserts
      into the backend outside the façade's locks. *)

  val try_delete_min : t -> (int * int) option
  (** Non-blocking delete-min: [None] when the façade is empty.  With no
      item credit it still asks the backend once, so an element whose
      credit a concurrent take spent is found. *)

  val delete_min_wait : t -> int * int
  (** Blocking delete-min: parks on [not_empty] until an item credit is
      available, then pops the backend outside the façade's locks.  Never
      returns on a façade that stays empty — on the simulator a
      permanently parked consumer is reported by the deadlock detector,
      naming [not_empty] and the pop lock. *)

  val stats : t -> (string * float) list
  (** Front-end counters: [parks] (consumer parks on [not_empty]),
      [wakes] (signals sent on either condition), [backpressure_stalls]
      (producer parks on [not_full]).  Exact on the simulator; updated
      without extra synchronization natively, so mid-run readings are
      approximate there. *)
end
